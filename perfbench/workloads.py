"""The benchmark's four workloads, as lists of CLI items built from a seed.

An item is one `liebend.cli.main` call.  Items flagged `timed` make up the
pass that `pass_s` measures; the others (the bend coverage set and the
pinned check-stream query) run untimed, once per run, and count only in the
failure counts.  Nothing here imports
liebend: inputs are generated from the seed alone, so the program receives
only the generated files and arguments.
"""

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECT_DIR = os.path.join(HERE, "expect")

WORKLOADS = ("sec6-grid", "check-stream", "bend-verified", "bend-float")

# check-stream families and their ranks; a_h takes every dimension 1..rank
CHECK_FAMILIES = (
    {"family": "sl", "n": 5},
    {"family": "sl", "n": 6},
    {"family": "sl", "n": 7},
    {"family": "su", "p": 3, "q": 3},
    {"family": "su", "p": 4, "q": 2},
    {"family": "su", "p": 5, "q": 5},
)

# Queries on which benoist_certificate searches for minutes at the seed
# commit; each runs in every check-stream run as a known defect.  su(5,5)
# with a_h the hyperplane annihilated by (0,1,-3,2,0) ends in
# RealizationError after about 161 s; the sl(7) query, item sl7-d5-image of
# stream seed 408, was still searching after 250 s.
PINNED_QUERIES = (
    ({"family": "su", "p": 5, "q": 5},
     [[-2, 2, 0, -1, 2], [-1, 0, 0, 0, 2], [0, -1, 1, 2, -2], [-2, 2, 2, 2, 1]]),
    ({"family": "sl", "n": 7},
     [[-2, 1, 2, 0, -1, 4, -4], [-1, 1, 0, 0, 1, 0, -1], [-1, 0, -1, 1, -1, 1, 1],
      [0, 0, -2, 2, 0, 0, 0], [1, 0, -1, -1, 1, -1, 1]]),
)

VERIFY_DPS = 40


@dataclass
class Item:
    item_id: str
    kind: str               # "reproduce" | "check" | "bend"
    argv: list              # CLI arguments without --out; "{input}" marks the input file
    timed: bool = True
    input_doc: object = None  # JSON written to the item's input file, if any
    meta: dict = field(default_factory=dict)


def load_expect(name):
    with open(os.path.join(EXPECT_DIR, name)) as fh:
        return json.load(fh)


def items_for(workload, seed):
    if workload == "sec6-grid":
        return sec6_grid_items()
    if workload == "check-stream":
        return check_stream_items(seed)
    if workload == "bend-verified":
        return bend_items(VERIFY_DPS)
    if workload == "bend-float":
        return bend_items(0)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def sec6_grid_items():
    items = [Item("sec53", "reproduce", ["reproduce", "sec53"])]
    for p in range(1, 7):
        for q in range(1, p + 1):
            items.append(Item(f"sec6-su{p},{q}", "reproduce",
                              ["reproduce", "sec6", "--p", str(p), "--q", str(q)]))
    return items


def plan_id(plan):
    if plan["family"] == "sl":
        fam = f"sl{plan['n']}"
        tri = "[" + ",".join(map(str, plan["triple"]["partition"])) + "]"
    else:
        fam = f"su{plan['p']},{plan['q']}"
        tri = plan["triple"]
    return f"{fam}-{tri}-g{plan['genus']}"


def bend_items(dps):
    """Timed plan set first (PASS at the seed commit), then the coverage set.

    The plan list and each timed plan's residual at the seed commit live in
    expect/bend_plans.json; checks.py derives each item's residual tolerance
    from the recorded value."""
    recorded = load_expect("bend_plans.json")
    items = []
    for rec in recorded["plans"]:
        plan = dict(rec["plan"], t="auto", verify_dps=dps)
        key = "verified_residual" if dps else "float_residual"
        items.append(Item(plan_id(plan), "bend", ["bend", "--plan", "{input}"],
                          timed=rec["timed"], input_doc=plan,
                          meta={"seed_residual": rec.get(key), "dps": dps}))
    items.sort(key=lambda it: not it.timed)
    return items


def _gauss_rank(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _triple_vectors(fam):
    """Torus vectors (free coordinates) of the triples the package constructs:
    sl2_from_partition for sl(n), rho1/rho2 for su(p,q)."""
    if fam["family"] == "sl":
        n = fam["n"]
        out = []
        for parts in _partitions(n):
            if max(parts) == 1:
                continue
            weights = [w for p in parts for w in range(p - 1, -p, -2)]
            out.append(tuple(sorted(weights, reverse=True)))
        return out
    p, q = fam["p"], fam["q"]
    out = [(1,) * q]
    if p > q:
        out.append(tuple(range(2 * q, 0, -2)))
    return out


def _rank_and_len(fam):
    if fam["family"] == "sl":
        return fam["n"] - 1, fam["n"]
    return fam["q"], fam["q"]


def _random_weyl_image(rng, fam, v):
    """w.v for a uniformly random w: permutations for sl, signed for su."""
    perm = list(range(len(v)))
    rng.shuffle(perm)
    if fam["family"] == "sl":
        return [v[i] for i in perm]
    return [v[i] * rng.choice((1, -1)) for i in perm]


def _random_row(rng, fam, length):
    row = [rng.randint(-2, 2) for _ in range(length)]
    if fam["family"] == "sl":
        row[-1] = -sum(row[:-1])  # sl(n,R) torus vectors are traceless
    return row


def _sample_basis(rng, fam, dim, kind):
    rank, length = _rank_and_len(fam)
    vectors = _triple_vectors(fam)
    while True:
        if kind == "image":
            rows = [_random_weyl_image(rng, fam, rng.choice(vectors)) for _ in range(dim)]
        else:
            rows = [_random_row(rng, fam, length) for _ in range(dim)]
        # resample only linearly dependent bases; never filter on outcome
        if _gauss_rank(rows) == dim:
            return [[int(x) for x in r] for r in rows]


def _family_args(fam):
    if fam["family"] == "sl":
        return ["--family", "sl", "--n", str(fam["n"])]
    return ["--family", "su", "--p", str(fam["p"]), "--q", str(fam["q"])]


def _family_tag(fam):
    return f"sl{fam['n']}" if fam["family"] == "sl" else f"su{fam['p']},{fam['q']}"


# The check-stream query pool is the stream of this generator seed, so every
# run measures the same queries and reaches the same outcomes; the run's
# --seed orders them.  expect/check_stream.json holds the pool's verdicts.
STREAM_SEED = 0


def check_stream_queries(stream_seed):
    """One query for every (family, dim) cell.  Within each family the cells
    alternate between Weyl-image and random bases from a seed-chosen start,
    so half the bases are of each kind.  Returns [(item_id, family, rows)]."""
    rng = random.Random(stream_seed)
    queries = []
    for fam in CHECK_FAMILIES:
        rank, _ = _rank_and_len(fam)
        phase = rng.randrange(2)
        for dim in range(1, rank + 1):
            kind = ("image", "random")[(dim + phase) % 2]
            queries.append((f"{_family_tag(fam)}-d{dim}-{kind}", fam,
                            _sample_basis(rng, fam, dim, kind)))
    return queries


def check_stream_items(seed):
    """The query pool in an order drawn from `seed`, then the pinned queries,
    untimed like the bend coverage set."""
    queries = check_stream_queries(STREAM_SEED)
    random.Random(seed).shuffle(queries)
    pinned = [(f"{_family_tag(fam)}-pinned", fam, rows) for fam, rows in PINNED_QUERIES]
    return [Item(item_id, "check", ["check", *_family_args(fam), "--ah", "{input}"],
                 timed=not item_id.endswith("-pinned"), input_doc=rows,
                 meta={"family": fam, "rows": rows})
            for item_id, fam, rows in queries + pinned]


def query_key(fam, rows):
    """Content key of a check query, used to look up recorded expectations."""
    return _family_tag(fam) + ":" + json.dumps(rows, separators=(",", ":"))


def constructed_triples():
    """(family spec, triple spec) for every triple the package constructs
    with su p <= 4 and sl n <= 6; used to record the bend plan set."""
    for p in range(1, 5):
        for q in range(1, p + 1):
            fam = {"family": "su", "p": p, "q": q}
            yield fam, "rho1"
            if p > q:
                yield fam, "rho2"
    for n in range(2, 7):
        for parts in _partitions(n):
            if max(parts) > 1:
                yield {"family": "sl", "n": n}, {"partition": list(parts)}

