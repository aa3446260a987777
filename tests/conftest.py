import math
import random
from itertools import product

import pytest

from loccap import capacity_engine as ce
from loccap import channel_model as cm
from loccap import gf_core, qcomb
from loccap.cli import fixture_path
from loccap.classify import PredicateResult
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


def spec_to_dict(spec):
    """The channel file's document of spec, items in sorted-H order: the
    reference for ``channel_model.save_channel``, whose bytes are
    ``json.dumps(spec_to_dict(spec), indent=1) + "\n"``."""
    return {
        "q": spec.field.q, "T": spec.T, "M": spec.M, "N": spec.N,
        "pmf": [{"H": gf_core.row_lists(h, spec.N),
                 "p": f"{p.numerator}/{p.denominator}"}
                for h, p in sorted(spec.pmf_H.items())],
    }


def support_matrix(spec, h):
    """The support key h of spec.pmf_H as an M x N ``MatrixGF``."""
    return gf_core.MatrixGF(spec.field, spec.M, spec.N, h)


def is_uniform_given_rank_reference(spec):
    """The uniform-given-rank test with one ``gf_core.rank`` per support
    matrix: the reference for ``classify.is_uniform_given_rank``."""
    by_rank: dict = {}
    for h in sorted(spec.pmf_H):
        by_rank.setdefault(gf_core.rank(support_matrix(spec, h)),
                           []).append(h)
    for r, mats in sorted(by_rank.items()):
        first = mats[0]
        for h in mats[1:]:
            if spec.pmf_H[h] != spec.pmf_H[first]:
                return PredicateResult(False, {
                    "reason": "unequal mass at equal rank",
                    "rank": r, "H1": gf_core.row_lists(first, spec.N),
                    "H2": gf_core.row_lists(h, spec.N),
                    "p1": str(spec.pmf_H[first]), "p2": str(spec.pmf_H[h])})
        shell = qcomb.xi2(spec.M, spec.N, r, spec.field.q)
        if len(mats) != shell:
            return PredicateResult(False, {
                "reason": "rank shell only partially covered",
                "rank": r, "support": len(mats), "shell_size": shell})
    return PredicateResult(True)


def rank_pmf_reference(spec):
    """P(rank H = r) with one ``gf_core.rank`` per support matrix, keyed
    in first-occurrence order: the reference for ``ChannelSpec.rank_pmf``."""
    out: dict = {}
    for h, p in spec.pmf_H.items():
        r = gf_core.rank(support_matrix(spec, h))
        out[r] = out.get(r, 0) + p
    return out


def mi_alpha_reference(core, alpha):
    """I(X;Y) = H(Y) - H(Y|X) at the input uniform on each row-space
    fiber with weights alpha: the output matrix mass m(W) spread over
    the xi(T, dim W) matrices of each row space W, and the entropy of
    each class table.  The reference for ``capacity_engine.mi_alpha``,
    which takes it as I(U;W) plus the alpha-weighted mean reward."""
    spec = core.spec
    mass, h_cond = {}, 0.0
    for u, a in alpha.items():
        a = float(a)
        if a == 0.0:
            continue
        for w, f in core.fibers[u].items():
            mass[w] = mass.get(w, 0.0) + a * float(f.mass)
        h_cond += a * -sum(float(p) * ce._log2(p)
                           for p in core.tables[u].values())
    h_y = -sum(m * (math.log2(m)
                    - ce._log2(qcomb.xi(spec.T, w.dim, spec.field.q)))
               for w, m in mass.items() if m > 0.0)
    return h_y - h_cond


def merged_classes_reference(core):
    """The first class of each (mass row, sorted table values)
    signature, in class order: the classes the Shannon solver keeps when
    it merges classes with one output law.  The reference for
    ``capacity_engine._shannon_capacity``, which merges on (mass row,
    reward)."""
    setup = ce._class_setup(core)
    first = {}
    for u, row in zip(setup.classes, setup.mass_rows):
        values = tuple(sorted(core.tables[u].values()))
        first.setdefault((tuple(sorted(row.items())), values), u)
    return list(first.values())
