"""Prometheus text scrapes of the tiers' /_dynaprox/metrics, and deltas.

A benchmark that silently reads a renamed series as 0 would report a
wrong per-layer number, so every lookup of a named series that is absent
raises MissingSeries instead.
"""


class MissingSeries(KeyError):
    pass


def parse(text):
    """Maps each sample's series (name plus label set, as written) to its
    value. Comment and blank lines are skipped."""
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        if not series:
            raise ValueError(f"malformed metrics line: {line!r}")
        samples[series] = float(value)
    return samples


class Delta:
    """After-minus-before view of two scrapes of one tier."""

    def __init__(self, tier, before, after):
        self.tier = tier
        self.before = before
        self.after = after

    def __getitem__(self, series):
        for scrape in (self.before, self.after):
            if series not in scrape:
                raise MissingSeries(f"{self.tier} /metrics has no '{series}'")
        return self.after[series] - self.before[series]

    def sum(self, *series):
        return sum(self[name] for name in series)


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when nothing happened."""
    return numerator / denominator if denominator else 0.0
