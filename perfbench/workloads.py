"""The four benchmark workloads: seeded inputs, fixed job lists, answer checks.

A job is one user-level action, timed on its own.  Most jobs are CLI
commands run in-process through `ramseykit.cli.dispatch(argv)` with stdout
and stderr captured; the in-memory ledger jobs call the library API, as a
script using the package would.  Every job has a check that raises
`WrongAnswer` when the program's output is wrong; checks run outside the
timed region.

Each `setup_<workload>(rng)` writes the workload's input files into the
current directory and returns a `Plan`: the job list in the order fixed by
the seed, and a `reset` hook run (untimed) before each pass over the list.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from ramseykit import cli
from ramseykit import cliques
from ramseykit import colouring as col
from ramseykit import constructions as cons
from ramseykit import ledger as led


class WrongAnswer(Exception):
    """The program returned a wrong answer or exit code."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    outputs: tuple[str, ...] = ()  # files folded into the job's digest

    def digest(self, result) -> str:
        """Fingerprint of the job's answer: its result and output files."""
        h = hashlib.sha256(self.name.encode())
        h.update(_canonical(result).encode())
        for path in self.outputs:
            if os.path.exists(path):
                with open(path, "rb") as f:
                    h.update(f.read())
        return h.hexdigest()


@dataclass
class Plan:
    jobs: list[Job]
    reset: Callable[[], None] = lambda: None


def _canonical(result) -> str:
    if isinstance(result, led.Ledger):
        return repr([(f.fact_id, f.identity()) for f in result.facts])
    return repr(result)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# -- CLI jobs ----------------------------------------------------------------

def dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        # looked up at call time so that tracing wrappers apply
        code = cli.dispatch(argv)
    return code, out.getvalue()


def cli_job(argv: list[str], expect: int,
            check: Callable[[str], None] | None = None,
            outputs: tuple[str, ...] = ()) -> Job:
    def verify(result):
        code, out = result
        _require(code == expect,
                 f"{' '.join(argv)}: exit {code}, expected {expect}: "
                 f"{out[-300:]!r}")
        if check is not None:
            check(out)

    return Job(" ".join(argv), lambda: dispatch(argv), verify, outputs)


def shuffled_groups(rng: random.Random, groups: list[list[Job]]) -> list[Job]:
    """Seeded order of independent job groups; each group keeps its order."""
    groups = list(groups)
    rng.shuffle(groups)
    return [job for group in groups for job in group]


# -- verify output ------------------------------------------------------------

_COLOUR_LINE = re.compile(
    r"colour (\d+): max clique (=|>=) (\d+) \(bound \d+\) (ok|CLIQUE)")


def parse_verify(out: str) -> list[tuple[int, tuple[int, ...] | None]]:
    """Per colour: (reported clique size, witness or None)."""
    rows: list[list] = []
    for line in out.splitlines():
        m = _COLOUR_LINE.fullmatch(line)
        if m:
            rows.append([int(m.group(3)), None])
        elif line.startswith("  witness: ") and rows:
            rows[-1][1] = tuple(int(x) for x in
                                line[len("  witness: ["):-1].split(", "))
    return [tuple(r) for r in rows]


def check_witnesses(path: str, out: str, want: tuple[int, ...] | None = None,
                    at_least: tuple[int, ...] | None = None) -> None:
    """Every reported witness is a clique of the reported size in its colour.

    `want` pins exact clique numbers; `at_least` pins lower bounds (the
    early-stop path reports a clique of at least the bound).
    """
    c = col.load_colouring(path)
    g = c if isinstance(c, col.ExplicitColouring) else col.expand_to_explicit(c)
    rows = parse_verify(out)
    _require(len(rows) == g.num_colours,
             f"{path}: {len(rows)} colour lines for {g.num_colours} colours")
    for s, (size, wit) in enumerate(rows, start=1):
        _require(wit is not None and len(wit) == size,
                 f"{path}: colour {s} witness {wit} for size {size}")
        _require(cliques.is_clique(g, s, wit),
                 f"{path}: colour {s} witness {wit} is not a clique")
        if want is not None:
            _require(size == want[s - 1],
                     f"{path}: colour {s} clique number {size}, "
                     f"expected {want[s - 1]}")
        if at_least is not None:
            _require(size >= at_least[s - 1],
                     f"{path}: colour {s} clique {size} below {at_least[s - 1]}")


def check_order(path: str, order: int) -> None:
    got = col.load_colouring(path).order
    _require(got == order, f"{path}: order {got}, expected {order}")


def _avoid(ks) -> str:
    return ",".join(str(k) for k in ks)


# ---------------------------------------------------------------------------
# certify: construct, then verify, on a corpus of mixed representations.

# Published clique numbers of the Paley graphs of prime order q = 1 (mod 4);
# Paley colourings are self-complementary, so both colours share the value.
PALEY_OMEGA = {13: 3, 17: 3, 29: 4, 37: 4, 41: 5, 53: 5, 61: 5, 73: 5,
               89: 5, 97: 6, 101: 5, 109: 6, 113: 7, 137: 7, 149: 7,
               157: 7, 173: 8, 181: 7, 193: 7, 197: 8}
CERTIFY_PALEY = (101, 109, 113, 137, 149, 173)
# Random cyclic colourings: (order, colours, count).  The colourings come
# from a fixed generator, so every seed searches the same graphs; the seed
# relabels their colours, which reorders the per-colour searches of a verify
# without changing their work.  (A freely seeded colouring, or a multiplier
# automorphism, changes a search's cost by up to two times.)
CERTIFY_RANDOM = ((89, 2, 2), (127, 2, 2), (61, 3, 2), (79, 3, 2))
CERTIFY_RANDOM_SEED = 2203


def _paley(q: int, avoid=None) -> col.LengthColouring:
    p = cons.paley_colouring(q)
    return col.LengthColouring(p.kind, q, 2, p.colour_of, avoid=avoid)


def setup_certify(rng: random.Random) -> Plan:
    c5 = col.pentagon()
    col.save_colouring(c5, "c5.json")
    col.save_colouring(_paley(13, (4, 4)), "p13.json")
    col.save_colouring(_paley(17, (4, 4)), "p17.json")
    col.save_colouring(_paley(17, (4, 4)).as_linear(), "p17lin.json")
    col.save_colouring(_paley(29, (5, 5)), "p29.json")
    randoms = []
    base = random.Random(CERTIFY_RANDOM_SEED)
    for order, r, count in CERTIFY_RANDOM:
        for i in range(count):
            labels = list(range(1, r + 1))
            rng.shuffle(labels)
            colours = tuple(labels[base.randint(1, r) - 1]
                            for _ in range(order // 2))
            name = f"rand{order}c{r}_{i}.json"
            col.save_colouring(
                col.LengthColouring(col.CYCLIC, order, r, colours), name)
            randoms.append((name, order, r))

    groups: list[list[Job]] = []
    for q in CERTIFY_PALEY:
        w = PALEY_OMEGA[q]
        f = f"paley{q}.json"
        groups.append([
            cli_job(["construct", "paley", "--q", str(q), "--out", f], 0,
                    lambda out, f=f, q=q: check_order(f, q), outputs=(f,)),
            cli_job(["verify", f, "--avoid", _avoid((w + 1, w + 1)),
                     "--exact", "--witness"], 0,
                    lambda out, f=f, w=w: check_witnesses(f, out, want=(w, w))),
            # a bound the colouring fails: early stop, exit 1
            cli_job(["verify", f, "--avoid", _avoid((w, w)), "--witness"], 1,
                    lambda out, f=f, w=w: check_witnesses(f, out,
                                                          at_least=(w, w))),
        ])

    def product_group(a, b, out_file, order, fail_avoid=None):
        jobs = [
            cli_job(["construct", "product", "--a", a, "--b", b,
                     "--out", out_file], 0,
                    lambda out: check_order(out_file, order),
                    outputs=(out_file,)),
            cli_job(["verify", out_file, "--exact", "--witness"], 0,
                    lambda out: check_witnesses(out_file, out)),
        ]
        if fail_avoid:
            jobs.append(cli_job(
                ["verify", out_file, "--avoid", _avoid(fail_avoid),
                 "--witness"], 1,
                lambda out: check_witnesses(out_file, out,
                                            at_least=fail_avoid)))
        return jobs

    # banded cyclic products: c5 x c5 -> 41 -> 365, and p13 x p13 -> 313
    groups.append(product_group("c5.json", "c5.json", "p41.json", 41)
                  + product_group("p41.json", "c5.json", "p365.json", 365))
    groups.append(product_group("p13.json", "p13.json", "p313.json", 313,
                                fail_avoid=(3, 3, 3, 3)))
    # banded linear product
    groups.append(product_group("p17lin.json", "c5.json", "l149.json", 149))

    # template compounds from a searched order-29 template (Paley 13, t=3)
    def compound(b, out_file, order, avoid):
        return [
            cli_job(["construct", "template", "--a", "t29.json", "--b", b,
                     "--out", out_file], 0,
                    lambda out: check_order(out_file, order),
                    outputs=(out_file,)),
            cli_job(["verify", out_file, "--avoid", _avoid(avoid), "--exact",
                     "--witness"], 0,
                    lambda out: check_witnesses(out_file, out)),
        ]

    groups.append(
        [cli_job(["search", "template", "--prototype", "p13.json", "--t", "3",
                  "--avoid", "4,4,3", "--out", "t29.json"], 0,
                 lambda out: check_order("t29.json", 29),
                 outputs=("t29.json",))]
        + compound("c5.json", "tc125.json", 125, (4, 4, 3, 3)))

    # explicit grid (song) product: Paley 29 x C5 -> 145, bounds (9, 9)
    groups.append([
        cli_job(["construct", "song", "--a", "p29.json", "--b", "c5.json",
                 "--out", "s145.json"], 0,
                lambda out: check_order("s145.json", 145),
                outputs=("s145.json",)),
        cli_job(["verify", "s145.json", "--exact", "--witness"], 0,
                lambda out: check_witnesses("s145.json", out)),
    ])

    for name, order, r in randoms:
        groups.append([cli_job(
            ["verify", name, "--avoid", _avoid((order,) * r), "--exact",
             "--witness"], 0,
            lambda out, name=name: check_witnesses(name, out))])
    return Plan(shuffled_groups(rng, groups))


# ---------------------------------------------------------------------------
# sat-search: encode -> DIMACS -> solve -> decode -> verify, and template
# searches.

# (kind, order, avoid, status).  UNSAT statuses at orders >= the Ramsey
# number follow from R(3,3)=6, R(4,4)=18, R(3,5)=14, R(3,6)=18 and
# R(3,3,3)=17; cyclic (3,3,3;16) is UNSAT by exhaustive enumeration.  The
# remaining statuses are the answers of the reference solver.
SAT_INSTANCES = (
    ("cyclic", 5, (3, 3), "SAT"), ("cyclic", 6, (3, 3), "UNSAT"),
    ("cyclic", 13, (3, 3, 3), "SAT"), ("cyclic", 14, (3, 3, 3), "SAT"),
    ("cyclic", 15, (3, 3, 3), "UNSAT"), ("cyclic", 16, (3, 3, 3), "UNSAT"),
    ("cyclic", 17, (3, 3, 3), "UNSAT"),
    ("linear", 13, (3, 3, 3), "SAT"), ("linear", 14, (3, 3, 3), "SAT"),
    ("linear", 15, (3, 3, 3), "UNSAT"), ("linear", 16, (3, 3, 3), "UNSAT"),
    ("linear", 17, (3, 3, 3), "UNSAT"),
    ("cyclic", 17, (4, 4), "SAT"), ("cyclic", 18, (4, 4), "UNSAT"),
    ("linear", 17, (4, 4), "SAT"), ("linear", 18, (4, 4), "UNSAT"),
    ("cyclic", 13, (3, 5), "SAT"), ("cyclic", 14, (3, 5), "UNSAT"),
    ("linear", 13, (3, 5), "SAT"), ("linear", 14, (3, 5), "UNSAT"),
) + tuple(("cyclic", m, (3, 6), "UNSAT") for m in (17, 19, 21, 23)) + (
    ("cyclic", 20, (3, 3, 4), "SAT"), ("cyclic", 21, (3, 3, 4), "SAT"),
    ("cyclic", 22, (3, 3, 4), "SAT"), ("cyclic", 23, (3, 3, 4), "SAT"),
    ("cyclic", 24, (3, 3, 4), "SAT"), ("cyclic", 27, (3, 3, 4), "UNSAT"),
    ("cyclic", 29, (3, 3, 4), "SAT"),
) + tuple(("cyclic", m, (3, 3, 5), "SAT") for m in (30, 35, 37))

# (prototype file, t, avoid, found order or None when exhausted)
TEMPLATE_SEARCHES = (
    ("proto8.json", 3, (3, 4, 3), 19), ("p13.json", 3, (4, 4, 3), 29),
    ("proto8.json", 2, (3, 4, 3), None),
    ("p13.json", 4, (4, 4, 3), None), ("c5.json", 2, (3, 3, 3), None),
    ("c5.json", 3, (3, 3, 3), None),
)


def _status_check(want: str):
    def check(out: str):
        _require(f"s {want}" in out.splitlines(),
                 f"solver status {out.splitlines()[:1]}, expected {want}")
    return check


def _model_passes(path: str, avoid) -> None:
    c = col.load_colouring(path)
    _require(cliques.ramsey_check(c, avoid).passes,
             f"{path}: decoded model fails ramsey_check for {avoid}")


def setup_sat_search(rng: random.Random) -> Plan:
    col.save_colouring(col.pentagon(), "c5.json")
    col.save_colouring(_paley(13, (4, 4)), "p13.json")
    col.save_colouring(
        col.LengthColouring(col.CYCLIC, 8, 2, (1, 2, 2, 1), avoid=(3, 4)),
        "proto8.json")
    groups: list[list[Job]] = []
    for kind, m, avoid, status in SAT_INSTANCES:
        stem = f"{kind}{m}_{''.join(map(str, avoid))}"
        cnf, model, out_file = stem + ".cnf", stem + ".model", stem + ".json"
        a = _avoid(avoid)
        group = [
            cli_job(["encode", kind, "--order", str(m), "--avoid", a,
                     "--out", cnf], 0, outputs=(cnf,)),
            cli_job(["solve", cnf, "--model-out", model],
                    0 if status == "SAT" else 1, _status_check(status)),
        ]
        if status == "SAT":
            group += [
                cli_job(["decode", "--cnf", cnf, "--model", model,
                         "--out", out_file], 0,
                        lambda out, f=out_file, av=avoid: _model_passes(f, av),
                        outputs=(out_file,)),
                cli_job(["verify", out_file, "--avoid", a], 0),
            ]
        groups.append(group)
    for proto, t, avoid, found in TEMPLATE_SEARCHES:
        out_file = f"tmpl_{proto[:-5]}_t{t}.json"
        argv = ["search", "template", "--prototype", proto, "--t", str(t),
                "--avoid", _avoid(avoid), "--out", out_file]
        if found is None:
            groups.append([cli_job(
                argv, 1, lambda out: _require(
                    "no template exists" in out or "unsatisfiable" in out,
                    f"search did not report exhaustion: {out[-200:]!r}"))])
        else:
            groups.append([
                cli_job(argv, 0,
                        lambda out, f=out_file, n=found: check_order(f, n),
                        outputs=(out_file,)),
                cli_job(["template-check", out_file, "--avoid",
                         _avoid(avoid[:-1]), "--reps", "4"], 0),
            ])
    return Plan(shuffled_groups(rng, groups))


# ---------------------------------------------------------------------------
# ledger-derive: in-memory closures and queries, plus the shipped pipelines.

DERIVE_RUNS = (
    ("r3r4r7-r11-d3", ["r3", "r4", "r7", "r8", "r9", "r10", "r11"], 3),
    ("all-d2", None, 2),
)
# The recipe expectations and further seed-derived keys, then keys that
# only one of the two closures reaches.
QUERY_SET = (
    (led.RAMSEY, (9, 9, 9)), (led.RAMSEY, (8, 8, 8)), (led.RAMSEY, (3, 6, 6)),
    (led.RAMSEY, (3, 8, 8)), (led.GAMMA, (6,)), (led.GAMMA, (5,)),
    (led.GAMMA, (7,)), (led.GAMMA, (9,)), (led.GRAPH, (5, 5, 5, 3)),
    (led.RAMSEY, (3, 9, 9)), (led.RAMSEY, (9, 10, 10)),
    (led.GRAPH, (3, 3, 5, 5)), (led.GRAPH, (3, 3, 3, 5, 5)),
    (led.GRAPH, (3, 3, 3, 3, 3) + (5,) * 10),
    (led.GRAPH, (3, 3, 3, 3, 3) + (5,) * 6 + (6,) * 4),
)
TABLE_K, TABLE_R = range(3, 11), range(2, 7)

# best_bound values of QUERY_SET per closure, as the reference closure
# computes them (None: no matching fact).
_RECIPE_VALUES = [15041, 7174, 338, 941, "15.297058", "10.758400",
                  "25.922962", "42.918527", 1429, 1844, 29489]
DERIVE_EXPECT = {
    "r3r4r7-r11-d3": _RECIPE_VALUES + [None, None, 108349932813,
                                       1433888289813],
    "all-d2": [15041, None] + _RECIPE_VALUES[2:] + [279, 837, None, None],
}
# emit_table cell values (None for "-"), row by row; the same for both
TABLE_EXPECT = [[None] * 5] * 5 + [[None, 7173, None, None, None],
                                   [None, 15040, None, None, None],
                                   [None] * 5]


def _value(v):
    return v.render() if isinstance(v, led.GammaValue) else v


def query_values(ledger: led.Ledger) -> list:
    out = []
    for kind, params in QUERY_SET:
        f = ledger.best_bound(kind, params)
        out.append(None if f is None else _value(f.value))
    return out


def table_values(text: str) -> list[list]:
    rows = []
    for line in text.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")][1:]
        rows.append([None if c == "-" else int(c.split()[0]) for c in cells])
    return rows


def setup_ledger_derive(rng: random.Random) -> Plan:
    state: dict[str, led.Ledger] = {}
    groups: list[list[Job]] = []
    for name, rules, depth in DERIVE_RUNS:
        def derive(name=name, rules=rules, depth=depth):
            ledger = led.Ledger()
            led.load_seed_pack(ledger)
            ledger.derive_closure(rules=rules, depth=depth)
            state[name] = ledger
            return ledger

        def query_check(values, name=name):
            _require(values == DERIVE_EXPECT[name],
                     f"{name}: best_bound values {values}")

        def recompute(name=name):
            state[name].recompute_check()
            return None

        def table(name=name):
            return state[name].emit_table(TABLE_K, TABLE_R)

        def table_check(text, name=name):
            _require(table_values(text) == TABLE_EXPECT,
                     f"{name}: table {table_values(text)}")

        def query(name=name):
            values = query_values(state[name])
            del state[name]  # last job of the group: release the closure
            return values

        groups.append([
            Job(f"derive {name}", derive,
                lambda ledger, check=query_check: check(query_values(ledger))),
            Job(f"recompute_check {name}", recompute, lambda _: None),
            Job(f"emit_table {name}", table, table_check),
            Job(f"best_bound {name}", query, query_check),
        ])
    for recipe, lines in (("reproduce_r3_bounds", 8),
                          ("desk_scale_compounds", 12)):
        groups.append([cli_job(
            ["pipeline", recipe], 0,
            lambda out, n=lines: _require(
                len(out.splitlines()) == n and "FAILED" not in out,
                f"pipeline log {out[-300:]!r}"))])
    return Plan(shuffled_groups(rng, groups))


# ---------------------------------------------------------------------------
# ledger-session: one fact store, one CLI command per job.

STORE = "session.jsonl"
SESSION_PALEY = (17, 29, 37, 41, 53, 61, 101)
# (file, avoid, cyclic); Paley bounds are the published clique numbers + 1
SESSION_CERTS = tuple(
    (f"paley{q}.json", (PALEY_OMEGA[q] + 1,) * 2, True)
    for q in SESSION_PALEY
) + (
    ("p41.json", (3, 3, 3, 3), True),
    ("p14lin.json", (3, 3, 3), False),
    ("p113.json", (4, 4, 3, 3), True),
    ("p149.json", (4, 4, 3, 3), True),
)
SESSION_ASSERTS = (
    ("3,3,4", "29", "cyclic (3,3,4;29) from the solver corpus"),
    ("3,3,3", "14", "linear (3,3,3;14) hand construction"),
)
# Queried best values before and after the shallow derive, as the
# reference implementation computes them.
SESSION_EXPECT_BEFORE = {
    "graph(4,4)": "17", "graph(5,5)": "37", "graph(6,6)": "101",
    "graph(4,4,3,3)": "149", "R(9,9,9)": "15041",
}
SESSION_EXPECT_AFTER = {
    "R(4,4)": "18", "R(6,6)": "102", "R(3,3,3,3)": "42", "R(3,3,4)": "30",
    "R(4,4,3,3)": "150",
}
SESSION_TABLE_EXPECT = [[None, 14, 41], [17, None, None], [37, None, None],
                        [101, None, None], [None, None, None],
                        [None, 7173, None], [None, 15040, None]]


def best_value(out: str):
    """Value of the queried fact: the last line of the provenance chain."""
    last = out.strip().splitlines()[-1]
    m = re.match(r"fact \d+: (R|Gamma)\([\d,]+\) >= ([\d.]+)", last)
    if m:
        return m.group(2)
    m = re.match(r"fact \d+: graph \([\d,]+; (\d+)\)", last)
    return m.group(1) if m else None


def setup_ledger_session(rng: random.Random) -> Plan:
    c5 = col.pentagon()
    for q in SESSION_PALEY:
        col.save_colouring(cons.paley_colouring(q), f"paley{q}.json")
    col.save_colouring(cons.product_cyclic(c5, c5), "p41.json")
    col.save_colouring(cons.product_linear(c5, col.single_edge()),
                       "p14lin.json")
    col.save_colouring(cons.product_cyclic(_paley(13, (4, 4)), c5),
                       "p113.json")
    col.save_colouring(cons.product_cyclic(_paley(17, (4, 4)), c5),
                       "p149.json")

    def reset():
        for path in (STORE, STORE + ".lock"):
            if os.path.exists(path):
                os.remove(path)

    def ledger(*argv, check=None):
        return cli_job(["ledger", "--store", STORE, *argv], 0, check,
                       outputs=(STORE,))

    def best_check(query, table):
        return lambda out: _require(
            best_value(out) == table[query],
            f"best {query}: {best_value(out)}, expected {table[query]}")

    # Each command re-verifies every stored certificate, so the order of the
    # adds sets the load; it stays fixed and the seed places the asserts
    # among them and orders the queries.
    writers = [ledger("add", f, "--avoid", _avoid(avoid),
                      *(["--cyclic"] if cyclic else []))
               for f, avoid, cyclic in SESSION_CERTS]
    for params, order, src in SESSION_ASSERTS:
        writers.insert(rng.randint(0, len(writers)),
                       ledger("assert", params, order, "--source", src,
                              "--cyclic"))
    before = [ledger("best", q, check=best_check(q, SESSION_EXPECT_BEFORE))
              for q in SESSION_EXPECT_BEFORE]
    after = [ledger("best", q, check=best_check(q, SESSION_EXPECT_AFTER))
             for q in SESSION_EXPECT_AFTER]
    rng.shuffle(before)
    rng.shuffle(after)
    jobs = [
        ledger("seed", check=lambda out: _require(
            out.strip() == "loaded 10 seed facts", f"seed: {out!r}")),
        ledger("derive", "--depth", "2"),
        *writers,
        *before,
        ledger("table", "--k", "3..9", "--r", "2..4",
               check=lambda out: _require(
                   table_values(out) == SESSION_TABLE_EXPECT,
                   f"table {table_values(out)}")),
        ledger("derive", "--rules", "r1,r7,r8,r9,r10,r11", "--depth", "1"),
        *after,
    ]
    return Plan(jobs, reset)


WORKLOADS = {
    "certify": setup_certify,
    "sat-search": setup_sat_search,
    "ledger-derive": setup_ledger_derive,
    "ledger-session": setup_ledger_session,
}
