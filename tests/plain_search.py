"""Plain reference searches for the exact solvers: raw state keys, no
orbit keys, no step bound, no thresholds."""

from signedspread.engine import MODE_RID, Label, StepContext

ZERO = int(Label.ZERO)
CONFUSED = int(Label.CONFUSED)


class PlainSearch:
    """The raw-keyed confusion search with stored best moves."""

    def __init__(self, g, mode):
        self.ctx = StepContext(g)
        self.allow_neg = mode == MODE_RID
        self.memo = {}

    def value(self, labels, at_root=False):
        key = labels.tobytes()
        if key not in self.memo:
            best, move = 0, None
            if (labels == ZERO).any():
                cur = int((labels == CONFUSED).sum())
                children, moves, ccounts = self.ctx.expand(labels, self.allow_neg and not at_root)
                best = None
                for i in range(len(ccounts)):
                    added = int(ccounts[i]) - cur
                    if best is not None and added >= best:
                        continue
                    total = added + self.value(children[i])
                    if best is None or total < best:
                        best, move = total, (int(moves[i, 0]), int(moves[i, 1]))
                        if best == 0:
                            break
            self.memo[key] = (best, move)
        return self.memo[key][0]


def plain_solve(g, mode):
    """(optimum, witness) of the raw-keyed confusion search."""
    search = PlainSearch(g, mode)
    labels = search.ctx.zeros_state()
    optimum = search.value(labels, at_root=True)
    witness = []
    while (move := search.memo[labels.tobytes()][1]) is not None:
        witness.append(move)
        labels = search.ctx.step(labels, *move)
    return optimum, witness


class PlainSteps:
    """Iterative deepening on the step budget, memoized on (state, steps
    left), with no step bound. The first placement is pinned to A, as in
    min_steps."""

    def __init__(self, g, mode):
        self.ctx = StepContext(g)
        self.allow_neg = mode == MODE_RID
        self.memo = {}

    def feasible(self, labels, remaining, at_root=False):
        """Whether `remaining` or fewer placements complete labels."""
        if not (labels == ZERO).any():
            return True
        if remaining == 0:
            return False
        key = (labels.tobytes(), remaining, at_root)
        if key not in self.memo:
            children, _, _ = self.ctx.expand(labels, self.allow_neg and not at_root)
            self.memo[key] = any(self.feasible(child, remaining - 1) for child in children)
        return self.memo[key]

    def value(self, labels, at_root=False):
        """The fewest steps that complete labels."""
        return next(t for t in range(self.ctx.graph.n + 1) if self.feasible(labels, t, at_root))


def plain_min_steps(g, mode):
    """(steps, witness) of the plain step search: at each state, the first
    child in lexicographic order that completes within the steps left."""
    search = PlainSteps(g, mode)
    labels = search.ctx.zeros_state()
    steps = search.value(labels, at_root=True)
    witness = []
    for left in range(steps, 0, -1):
        children, moves, _ = search.ctx.expand(labels, search.allow_neg and bool(witness))
        i = next(i for i, child in enumerate(children) if search.feasible(child, left - 1))
        witness.append((int(moves[i, 0]), int(moves[i, 1])))
        labels = children[i]
    return steps, witness
