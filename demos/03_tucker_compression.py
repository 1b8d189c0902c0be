"""Fitting an orthogonal Tucker-2 decomposition to reservoir states.

Runs a batch of short signals into one order-3 state tensor,
fits shared spatial/temporal bases at several rank pairs and reports
the relative reconstruction error of each.
"""

import numpy as np

from esn_tucker import data, esn
from esn_tucker.tucker import hooi, project_core


def main():
    ds = data.gen_sine_square(num_patterns=30, segments_per_pattern=1,
                              segment_len=100, seed=0)
    reservoir = esn.make_reservoir(n_nodes=30, n_inputs=1, alpha=0.5,
                                   seed=1)
    x = esn.run(reservoir, ds.inputs)
    print("state tensor:", x.shape, "(nodes x time x signals)")
    norm2 = np.sum(x**2)

    # U and V have orthonormal columns, so ||X - X^||^2 = ||X||^2 - ||G||^2
    print("\nrank pair   rel. error   iterations   converged")
    for ranks in [(2, 2), (4, 4), (6, 5), (10, 8), (20, 20)]:
        model = hooi(x, ranks, labels=ds.labels)
        err = np.sqrt(max(norm2 - np.sum(model.core**2), 0.0) / norm2)
        print(f"  {str(ranks):9}   {err:10.4f}   {model.iterations:10d}"
              f"   {model.converged}")

    # the same error from the reconstruction U G_k V' of every slice
    approx = np.matmul(model.u, np.matmul(model.core.transpose(2, 0, 1),
                                          model.v.T)).transpose(1, 2, 0)
    print("matches the explicit reconstruction:",
          np.isclose(np.linalg.norm(x - approx) / np.sqrt(norm2), err,
                     rtol=1e-6, atol=1e-6))

    # the core slices live in a tiny shared coordinate system; new state
    # matrices project into it with two small matrix products
    model = hooi(x, (6, 5), labels=ds.labels)
    probe = esn.run(reservoir,
                    data.gen_sine_square(1, 1, 100, seed=9).inputs[:, :, 0])
    g = project_core(probe, model)
    print("\nprobe state matrix", probe.shape, "-> core", g.shape)
    dists = [np.linalg.norm(g - model.core[:, :, j])
             for j in range(model.n_slices)]
    j = int(np.argmin(dists))
    print(f"nearest training core: slice {j + 1} "
          f"(class {model.slice_labels[j]}, distance {dists[j]:.4f})")


if __name__ == "__main__":
    main()
