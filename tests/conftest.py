import math
import random
from itertools import product

import pytest

from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap.cli import fixture_path
from loccap.gf_core import BudgetExceeded

FIXTURE_NAMES = ["table1.json", "table2.json", "example9.json",
                 "example6.json"]


@pytest.fixture(scope="session")
def fixtures():
    """name -> (ChannelSpec, TransitionCore) for the bundled channels."""
    out = {}
    for name in FIXTURE_NAMES:
        spec = cm.load_channel(fixture_path(name))
        out[name] = (spec, cm.transition_core(spec))
    return out


def random_small_channel(rng: random.Random, q: int = 2, t_max: int = 2):
    T = rng.randint(1, t_max)
    M = rng.randint(1, 2)
    N = rng.randint(1, 2)
    return cm.random_channel(rng, q, T, M, N)


def best_choice_unpruned(groups, tol, max_iter, budget, what):
    """The choice search before pruning: Blahut-Arimoto to the end on
    every choice.  The reference for ``capacity_engine._best_choice``; it
    calls ``_ba`` through the module, so a patched or traced ``_ba``
    sees its runs."""
    groups = list(groups)
    total = math.prod(len(g) for g in groups)
    if total > budget:
        raise BudgetExceeded(f"{total} {what} exceed budget {budget}")
    best = None
    tried = 0
    for choice in product(*groups):
        tried += 1
        res = ce._ba([row for row, _ in choice],
                     [reward for _, reward in choice], tol, max_iter)
        if best is None or res[0] > best[0]:
            best = res
    return best, tried
