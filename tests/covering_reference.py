"""The covering exchange as a restart scan over scalar ``contains`` calls:
the reference that ``nagata``'s exchange is checked against."""

from metriclab.nagata import contains


def restart_scan_cover(family):
    """The members' indices, in order, and the largest number of members
    whose balls hold one centre of the family.

    While some centre is uncovered, the scan from ball 0 finds the first
    such ball; it goes in, and the members whose centres it contains go
    out."""
    balls, space = family.balls, family.space
    current = []
    for _ in range(1000 * max(1, len(balls)) ** 2 + 1000):
        uncovered = None
        for j, b in enumerate(balls):
            if not any(contains(balls[i], b.center, space) for i in current):
                uncovered = j
                break
        if uncovered is None:
            counts = [sum(contains(balls[i], c, space) for i in current) for c in family.centers()]
            return current, max(counts, default=0)
        b = balls[uncovered]
        current = [i for i in current if not contains(b, balls[i].center, space)]
        current.append(uncovered)
    raise RuntimeError("covering exchange did not converge")
