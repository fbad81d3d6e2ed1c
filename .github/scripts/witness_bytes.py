"""Print the bytes of the ND sampler, the Born rule and the witnesses.

Run it with one checkout's ``src`` on ``PYTHONPATH`` and compare two
checkouts' outputs with ``cmp``:

    PYTHONPATH=src python .github/scripts/witness_bytes.py > witness-bytes.txt

The first lines are the sha256 of ``sample_behavior_matrix`` over every
count, seed and method of the grid below.  Then, for each behavior of
``random_states(2000, seed)``, one line of reprs: its ``to_json()``, its
``kcbs_value``, its ``chsh_value`` at every pivot and its
``check_no_disturbance`` list.  It uses only functions that every
version of the package has, so it also runs on an older checkout.
"""

import hashlib

from ndmonogamy.nodisturbance import sample_behavior_matrix
from ndmonogamy.quantum import behavior_from_state, random_states
from ndmonogamy.scenario import check_no_disturbance, chsh_value, kcbs_value

COUNTS = (0, 1, 15, 16, 17, 200, 511, 512, 513, 5000)
SAMPLER_SEEDS = (0, 1, 7, 12345)
STATE_SEEDS = (1, 2)


def main() -> None:
    for method in ("reject", "shrink"):
        for seed in SAMPLER_SEEDS:
            for count in COUNTS:
                rows = sample_behavior_matrix(count, seed, method)
                digest = hashlib.sha256(rows.tobytes()).hexdigest()
                print(f"sample_behavior_matrix({count}, {seed}, {method!r}) {rows.shape} {digest}")
    for seed in STATE_SEEDS:
        for k, state in enumerate(random_states(2000, seed)):
            behavior = behavior_from_state(state)
            chsh = [chsh_value(behavior, pivot) for pivot in (1, 2, 3, 4, 5)]
            violations = check_no_disturbance(behavior)
            kcbs = kcbs_value(behavior)
            print(seed, k, behavior.to_json(), repr(kcbs), repr(chsh), repr(violations))


if __name__ == "__main__":
    main()
