"""Session hooks for the suite-time criterion.

``test_criterion_4_property_suite_under_a_minute`` runs after every
other test.  It reads the unit modules' times and failures from the
``suite-clock`` plugin, which sums them as the modules run in this
session, so a full run does not run those modules a second time.
"""

LAST = "test_criterion_4_property_suite_under_a_minute"


def _module(nodeid):
    return nodeid.split("::", 1)[0]


class SuiteClock:
    """Seconds spent in each test module this session, and its failures."""

    def __init__(self):
        self.seconds = {}
        self.failed = []
        self.unfinished = {}   # module -> selected tests not yet torn down
        self.deselected = set()

    def pytest_deselected(self, items):
        self.deselected.update(_module(item.nodeid) for item in items)

    def pytest_collection_finish(self, session):
        for item in session.items:
            self.unfinished.setdefault(_module(item.nodeid),
                                       set()).add(item.nodeid)

    def pytest_runtest_logreport(self, report):
        module = _module(report.nodeid)
        self.seconds[module] = self.seconds.get(module, 0.0) + report.duration
        if report.failed:
            self.failed.append(report.nodeid)
        if report.when == "teardown":
            self.unfinished.get(module, set()).discard(report.nodeid)

    def totals(self, modules):
        """Summed seconds and failed tests of ``modules``, or None unless
        every test of each of them ran in this session."""
        if any(m in self.deselected or m not in self.unfinished
               or self.unfinished[m] for m in modules):
            return None
        return (sum(self.seconds[m] for m in modules),
                [n for n in self.failed if _module(n) in modules])


def pytest_configure(config):
    config.pluginmanager.register(SuiteClock(), "suite-clock")


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.name == LAST)
