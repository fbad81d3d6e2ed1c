"""Print the bytes of the ND sampler, the Born rule and the witnesses.

Run it with one checkout's ``src`` on ``PYTHONPATH`` and compare two
checkouts' outputs with ``cmp``:

    PYTHONPATH=src python .github/scripts/witness_bytes.py > witness-bytes.txt

The first lines are the sha256 of ``sample_behavior_matrix`` over every
count and seed of the grid below.  Then, for each behavior of
``random_states(2000, seed)``, one line of reprs: its ``to_json()``, its
``kcbs_value``, its ``chsh_value`` at every pivot and its
``check_no_disturbance`` list.

Then, for each seeded edge table (entries in ``[-PROB_TOL, 0)``, ``-0.0``
entries and sums off by less than ``PROB_TOL``, and some just outside),
the sha256 of ``Behavior(t).probs`` and of
``JointDistribution(("X", "Y", "Z"), t).probs``, or only the exception
type for a table that is rejected.  For each edge table that is accepted,
the number of records of ``check_no_disturbance(Behavior(t))``, the
sha256 of their repr (these tables disturb, so the reprs alone would run
to about 32 MB) and the repr of ``Behavior.marginal`` on one pair
assignment per context.  Last, on stacks of random mixtures of
the primal witnesses x = n/2 of ``ND_CERTIFICATES``, whose rows sit on
polytope faces with exact zeros: the repr of every ``monogamy_certificate``
report, and per pivot and join the sha256 of the joint tables and the repr
of each term's correlator.

It uses only names that every version of the package has, so it also
runs on an older checkout.
"""

import hashlib
import itertools

import numpy as np

from ndmonogamy.classical import c1_expression, c2_expression
from ndmonogamy.nodisturbance import (
    ND_CERTIFICATES,
    JointDistribution,
    fine_join_c1,
    fine_join_c2,
    monogamy_certificate,
    sample_behavior_matrix,
)
from ndmonogamy.quantum import behavior_from_state, random_states
from ndmonogamy.scenario import (
    CONTEXTS,
    PROB_TOL,
    Behavior,
    check_no_disturbance,
    chsh_value,
    kcbs_value,
)

COUNTS = (0, 1, 15, 16, 17, 200, 511, 512, 513, 5000)
SAMPLER_SEEDS = (0, 1, 7, 12345)
STATE_SEEDS = (1, 2)
EDGE_SEED = 20
EDGE_COUNT = 2000
FACE_SEEDS = (0, 1, 7)
FACE_ROWS = 200


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def edge_table(rng: np.random.Generator) -> np.ndarray:
    """A (10, 8) table with a few entries at the edges of the table rule.

    Some rows get an entry moved to within about ``PROB_TOL`` below zero,
    some an entry set to ``-0.0``, and some a sum pushed off 1 by about
    ``PROB_TOL``; the scale of each push sometimes exceeds 1, so that some
    tables are rejected.
    """
    table = rng.dirichlet(np.ones(8), size=10)
    for row in rng.choice(10, size=rng.integers(1, 4), replace=False):
        low, high = rng.choice(8, size=2, replace=False)
        kind = rng.integers(3)
        if kind == 0:
            target = -rng.uniform(0.0, 1.1) * PROB_TOL
            table[row, high] += table[row, low] - target
            table[row, low] = target
        elif kind == 1:
            table[row, high] += table[row, low]
            table[row, low] = -0.0
        else:
            table[row, high] += rng.uniform(-1.1, 1.1) * PROB_TOL
    return table


def witness_mixes(count: int, seed: int) -> np.ndarray:
    """``count`` random mixtures of the primal witnesses x = n/2, as rows.

    Dirichlet(0.3) weights, each kept with probability 0.3 and one chosen
    witness a row always, then renormalised.
    """
    witnesses = np.zeros((len(ND_CERTIFICATES), 80))
    for row, (_, primal) in zip(witnesses, ND_CERTIFICATES.values()):
        row[list(primal)] = list(primal.values())
    witnesses /= 2
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(len(witnesses), 0.3), size=count)
    kept = rng.random(weights.shape) < 0.3
    kept[np.arange(count), rng.integers(len(witnesses), size=count)] = True
    weights *= kept
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ witnesses


def pair_assignments() -> list[dict[str, int]]:
    """One assignment of two members per context, cycling through the member
    pairs and the four outcome pairs."""
    outcomes = list(itertools.product((-1, 1), repeat=2))
    return [
        {c.members[j % 3]: outcomes[j % 4][0], c.members[(j + 1) % 3]: outcomes[j % 4][1]}
        for j, c in enumerate(CONTEXTS)
    ]


def built(make, table: np.ndarray) -> str:
    """The sha256 of ``make(table).probs``, or the type of what it raised."""
    try:
        return digest(make(table).probs)
    except ValueError as exc:
        return type(exc).__name__


def main() -> None:
    for seed in SAMPLER_SEEDS:
        for count in COUNTS:
            rows = sample_behavior_matrix(count, seed)
            print(f"sample_behavior_matrix({count}, {seed})", rows.shape, digest(rows))
    for seed in STATE_SEEDS:
        for k, state in enumerate(random_states(2000, seed)):
            behavior = behavior_from_state(state)
            chsh = [chsh_value(behavior, pivot) for pivot in (1, 2, 3, 4, 5)]
            violations = check_no_disturbance(behavior)
            kcbs = kcbs_value(behavior)
            print(seed, k, behavior.to_json(), repr(kcbs), repr(chsh), repr(violations))
    rng = np.random.default_rng(EDGE_SEED)
    assignments = pair_assignments()
    for k in range(EDGE_COUNT):
        table = edge_table(rng)
        behavior = built(Behavior, table)
        joint = built(lambda t: JointDistribution(("X", "Y", "Z"), t), table)
        print("edge", k, behavior, joint)
        if behavior != "ValueError":
            accepted = Behavior(table)
            violations = repr(check_no_disturbance(accepted))
            text = hashlib.sha256(violations.encode()).hexdigest()
            marginals = [accepted.marginal(c, a) for c, a in zip(CONTEXTS, assignments)]
            print("nd", k, violations.count("NdViolation("), text, repr(marginals))
    for seed in FACE_SEEDS:
        probs = witness_mixes(FACE_ROWS, seed).reshape(-1, 10, 8)
        print("mixes", seed, int((probs == 0.0).sum()), "exact zeros")
        for k, report in enumerate(monogamy_certificate(probs)):
            print("certificate", seed, k, repr(report))
        for pivot in (1, 2, 3, 4, 5):
            for join, expression in ((fine_join_c1, c1_expression), (fine_join_c2, c2_expression)):
                joint = join(probs, pivot)
                print(join.__name__, seed, pivot, joint.variables, digest(joint.probs))
                for _, subset in expression(pivot).terms:
                    print(subset, repr(joint.correlator(subset).tolist()))


if __name__ == "__main__":
    main()
