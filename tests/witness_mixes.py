"""Face stacks for the tests: random mixtures of the certificate witnesses.

The primal witness x = n/2 of each row of ``ND_CERTIFICATES`` is a
no-disturbance behavior at which that row's expression attains its
bound.  Mixtures of a few of the 13 witnesses sit on faces of the
polytope, with many exact zeros, and reach every certified bound, which
random behaviors from ``sample_behavior_matrix`` do not.
"""

import numpy as np

from ndmonogamy.nodisturbance import ND_CERTIFICATES

#: the Dirichlet concentration of the weights, and the chance that a witness
#: keeps its weight; one witness a row always keeps it
CONCENTRATION = 0.3
KEEP = 0.3


def witness_mixes(count: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """``count`` random mixtures of the certificate witnesses, as (count, 80) rows.

    Each row's weights are Dirichlet(``CONCENTRATION``) draws; each weight
    is kept with probability ``KEEP``, one chosen witness always, and the
    kept weights are renormalised.
    """
    witnesses = np.zeros((len(ND_CERTIFICATES), 80))
    for row, (_, primal) in zip(witnesses, ND_CERTIFICATES.values()):
        row[list(primal)] = list(primal.values())
    witnesses /= 2
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.full(len(witnesses), CONCENTRATION), size=count)
    kept = rng.random(weights.shape) < KEEP
    kept[np.arange(count), rng.integers(len(witnesses), size=count)] = True
    weights *= kept
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ witnesses
