"""Driving a fixed random reservoir with a switching signal.

Generates one sine/square pattern, runs it through an echo state
network and prints a coarse picture of how the states separate the two
segment types.
"""

import numpy as np

from esn_tucker import data, esn


def main():
    ds = data.gen_sine_square(num_patterns=1, segments_per_pattern=6,
                              segment_len=100, seed=3)
    signal = ds.inputs[:, :, 0]
    print("signal shape:", signal.shape)
    print("segment labels:",
          ds.step_labels[0, ::100], "(1 = sine, 2 = square)")

    reservoir = esn.make_reservoir(n_nodes=20, n_inputs=1, alpha=0.5,
                                   seed=7)
    rho = np.max(np.abs(np.linalg.eigvals(reservoir.w_res)))
    print(f"\nreservoir: N={reservoir.n_nodes}, "
          f"{np.count_nonzero(reservoir.w_res)} recurrent weights, "
          f"spectral radius {rho:.4f}")

    states = esn.run(reservoir, signal)
    print("state matrix shape:", states.shape)

    # states are bounded by the tanh nonlinearity ...
    print("state range: [%.3f, %.3f]" % (states.min(), states.max()))

    # ... and their per-segment statistics differ by segment type
    print("\nper-segment mean absolute state:")
    for i in range(6):
        seg = states[:, i * 100:(i + 1) * 100]
        kind = "sine  " if ds.step_labels[0, i * 100] == 1 else "square"
        print(f"  segment {i + 1} ({kind}): {np.abs(seg).mean():.4f}")

    # a batch of equal-length signals (L x T x B) runs at once into the
    # N x T x B tensor the trainers use
    more = data.gen_sine_square(num_patterns=4, segments_per_pattern=6,
                                segment_len=100, seed=4)
    print("\ninput batch for 4 patterns:", more.inputs.shape)
    print("state tensor for 4 patterns:", esn.run(reservoir,
                                                   more.inputs).shape)


if __name__ == "__main__":
    main()
