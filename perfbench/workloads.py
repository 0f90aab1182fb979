"""Seeded inputs, jobs and output checks for the four benchmark workloads.

Inputs are made in two steps.  Pools are fixed, finite input lists built
from constant pool seeds; their expected outputs (digests) and, where the
cost of an input varies widely, its cost were recorded once at the
baseline commit in reference.json by record.py.  ``generate`` then draws a
stratified sample from the pools with the workload seed: every seed sees
other inputs, but the mix of cheap and expensive jobs stays the same, so
one seed's pass costs about what another's does.

A job is a call into qwp (``run``) plus a check of its output (``check``).
Jobs hold the imported qwp modules and look a function up on its module at
call time, so the wrappers of a traced run are seen.
Checks run after the timed pass and see every output of the pass, so a
check may compare neighbouring jobs (the Cauchy test of the trace ladder).
"""

import hashlib
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("confluence", "certificates", "representations", "cli-session")

PRESENTATIONS = tuple((kind, n) for kind in ("sphere", "sigma") for n in (1, 2, 3))
Q0_VALUES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
TOLERANCE = 1e-12

# confluence: a pool of random words, sampled by recorded cost
CONFLUENCE_POOL_SEED = 14123586
CONFLUENCE_POOL_SIZE = 4000
CONFLUENCE_WORDS = 500
MAX_WORD_LENGTH = 12

# certificates: the constructor grid; (1, 2, 3) is excluded (see reference.json).
# The grid is the whole input space, so a seed changes only the job order.
BEZOUT_N = range(1, 7)
BEZOUT_LARGE = (2, 8)  # (n, N): one large cyclic modulus, both targets
WEIGHTED = ((1, 2), (2, 3), (3, 4), (1, 1, 2))
TOWER_M = range(1, 5)

# representations: cutoff 10 for n = 1, 2; one seeded q0 at a smaller cutoff for n = 3
REP_CUTOFF = 10
REP_N3_CUTOFF = 8
TRACE_LADDER = tuple(range(2, 21, 2))

# cli-session: pools of argv lists, sampled per command kind
CLI_POOL_SEED = 35861412
LENS_SURVEY_SEED = 7
LENS_RUNGS = (
    (2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3), (6, 3), (6, 4), (8, 3),
    (10, 3), (8, 4), (12, 3), (10, 4), (15, 3), (12, 4), (20, 3), (15, 4), (30, 2),
)
LENS_CANDIDATES = 8
EXPRESSION_VARIANTS = 4
DEGREE_SPACES = (
    ["--space", "sphere", "--weights", "1,3"],
    ["--space", "sphere", "--weights", "2,3,5"],
    ["--space", "sigma", "--weights", "1,2"],
    ["--space", "lens", "--N", "3", "--weights", "1,1,2"],
    ["--space", "lens", "--N", "5", "--weights", "1,2"],
    ["--space", "wp", "--weights", "1,2"],
    ["--space", "wp", "--weights", "2,3,4"],
    ["--space", "rp", "--weights", "1,1,2,3"],
)
CERTIFY_COMMANDS = (
    ["grading", "certify", "--space", "lens", "--N", "2", "--weights", "1,1"],
    ["grading", "certify", "--space", "lens", "--N", "3", "--weights", "1,1"],
    ["grading", "certify", "--space", "lens", "--N", "3", "--weights", "1,2"],
    ["grading", "certify", "--space", "lens", "--N", "4", "--weights", "1,1,1"],
    ["grading", "certify", "--space", "wp", "--weights", "1,2"],
    ["grading", "certify", "--space", "wp", "--weights", "2,3"],
    ["grading", "certify", "--space", "wp", "--weights", "1,1,2"],
    ["grading", "certify", "--space", "sphere", "--weights", "1,2"],
    ["grading", "certify", "--space", "sphere", "--weights", "1,3"],
)
# report bytes of these kinds are compared with recorded digests; the rep
# reports carry floats, so only their verdicts are compared
EXACT_CLI_KINDS = ("lens", "teardrop", "real-teardrop", "normalize", "degree", "certify")


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Job:
    """One closed-loop request: ``run()`` calls qwp, ``check`` judges the output.

    ``check(output, outputs)`` returns None when the output is right and a
    message otherwise; ``outputs`` maps every job key of the pass to its
    output.  ``record`` turns an output into the value record.py stores.
    """

    __slots__ = ("key", "run", "check", "record")

    def __init__(self, key, run, check, record=None):
        self.key = key
        self.run = run
        self.check = check
        self.record = record


def stratified(rng, costs, count):
    """Pick ``count`` indices: the pool ranked by recorded cost is cut into
    ``count`` equal strata and one index is drawn from each.  ``None`` marks
    an excluded input, which is never drawn."""
    ranked = sorted((cost, index) for index, cost in enumerate(costs) if cost is not None)
    bounds = [round(k * len(ranked) / count) for k in range(count + 1)]
    return [ranked[rng.randrange(lo, hi)][1] for lo, hi in zip(bounds, bounds[1:])]


# -- confluence ---------------------------------------------------------------


def confluence_pool():
    """(kind, n, word tokens, strategy seed) for every pool word."""
    rng = random.Random(CONFLUENCE_POOL_SEED)
    pool = []
    for _ in range(CONFLUENCE_POOL_SIZE):
        kind, n = rng.choice(PRESENTATIONS)
        letters = [f"z{i}" for i in range(n + 1)]
        letters += [letter + "*" for letter in letters]
        if kind == "sigma":
            letters += ["w", "w*"]
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, MAX_WORD_LENGTH)))
        pool.append((kind, n, word, rng.getrandbits(32)))
    return pool


def _generator(S, token):
    if token in ("w", "w*"):
        return S.Generator(token, -1)
    star = token.endswith("*")
    return S.Generator("z*" if star else "z", int(token[1 : len(token) - star]))


def word_job(qwp, index, entry, want):
    kind, n, tokens, strategy_seed = entry
    S = qwp.star_algebra
    pres = S.AlgebraPresentation(kind, n)
    word = tuple(_generator(S, t) for t in tokens)

    def run():
        first = S.normalize(word, pres, strategy="leftmost")
        second = S.normalize(word, pres, strategy="random", rng=random.Random(strategy_seed))
        return first, second

    def check(out, _):
        first, second = out
        if first != second:
            return "leftmost and random strategies disagree"
        if want is not None and digest(str(first)) != want:
            return "normal form differs from the recorded digest"
        return None

    return Job(f"word {index} {kind}({n}) {' '.join(tokens)}", run, check,
               record=lambda out: digest(str(out[0])))


def relations_job(qwp, kind, n):
    S = qwp.star_algebra
    pres = S.AlgebraPresentation(kind, n)

    def run():
        return [
            name
            for name, lhs, rhs in S.defining_relations(pres)
            if not (S.normalize(lhs, pres) - S.normalize(rhs, pres)).is_zero()
        ]

    def check(out, _):
        return f"relations do not normalize to zero: {out}" if out else None

    return Job(f"relations {kind}({n})", run, check)


def confluence_jobs(qwp, seed, ref, words=CONFLUENCE_WORDS):
    rng = random.Random(seed)
    pool = confluence_pool()
    recorded = ref["confluence"]
    jobs = [relations_job(qwp, kind, n) for kind, n in PRESENTATIONS]
    for index in stratified(rng, recorded["costs_ms"], words):
        jobs.append(word_job(qwp, index, pool[index], recorded["digests"][index]))
    rng.shuffle(jobs)
    return jobs


# -- certificates -------------------------------------------------------------


def certificate_text(r):
    return "\n".join([f"target {r.target}"] + [f"{a} ; {b}" for a, b in r.pairs])


def _certificates(out):
    return [out] if hasattr(out, "pairs") else [out["res_plus"], out["res_minus"]]


def certificate_key(spec):
    return " ".join(str(part) for part in spec)


def certificate_specs(rng=None, tiny=False):
    """The constructor inputs of a pass: a fixed grid, which the seed only shuffles."""
    specs = [("bezout", n, N, t) for n in (1, 2, 3) for N in BEZOUT_N for t in (1, -1)
             if not (tiny and N > 4)]
    if not tiny:
        specs += [("bezout",) + BEZOUT_LARGE + (t,) for t in (1, -1)]
    specs += [("weighted",) + w for w in WEIGHTED if not (tiny and w == (3, 4))]
    specs += [("tower", kind, m) for kind in ("sphere", "sigma") for m in TOWER_M]
    if rng is not None:
        rng.shuffle(specs)
    return specs


def certificate_jobs_for(qwp, spec, want):
    """A build job followed by one verify job per certificate it returns."""
    G, S = qwp.grading, qwp.star_algebra
    cell = {}
    if spec[0] == "bezout":
        _, n, N, t = spec
        pres = S.AlgebraPresentation.sphere(n)
        g = G.GradingSpec(pres, (1,) * (n + 1), modulus=N)

        def build():
            return G.bezout_lens_resolution(N, n, (1,) * (n + 1), target=t)

        count = 1
    elif spec[0] == "weighted":
        w = spec[1:]
        pres = S.AlgebraPresentation.sphere(len(w) - 1)
        g = G.GradingSpec(pres, w, scale=math.prod(w))

        def build():
            return G.weighted_resolution(w, pres=pres)

        count = 2
    else:
        _, kind, m = spec
        pres = S.AlgebraPresentation(kind, 1)
        w = (1, m)
        g = G.GradingSpec(pres, w)

        def build():
            lens = G.weighted_resolution(w, pres=pres)
            cyclic = {
                "res_plus": G.bezout_lens_resolution(m, 1, w, target=1, pres=pres),
                "res_minus": G.bezout_lens_resolution(m, 1, w, target=-1, pres=pres),
            }
            return G.compose_tower_resolutions(G.TowerSpec(m), lens, cyclic, g)

        count = 2
    key = certificate_key(spec)

    def run_build():
        cell.clear()
        cell["certs"] = _certificates(build())
        return cell["certs"]

    def printed(certs):
        return digest("\n\n".join(certificate_text(r) for r in certs))

    def check_build(certs, _):
        if want is not None and printed(certs) != want:
            return "printed certificate differs from the recorded digest"
        return None

    jobs = [Job(f"build {key}", run_build, check_build, record=printed)]
    for slot in range(count):

        def run_verify(slot=slot):
            return G.verify_resolution(cell["certs"][slot], g)

        def check_verify(out, _):
            return None if out["valid"] else "certificate does not re-verify"

        jobs.append(Job(f"verify {key} #{slot}", run_verify, check_verify))
    return jobs


def certificate_jobs(qwp, seed, ref, tiny=False):
    digests = ref["certificates"]["digests"]
    jobs = []
    for spec in certificate_specs(random.Random(seed), tiny):
        jobs += certificate_jobs_for(qwp, spec, digests.get(certificate_key(spec)))
    return jobs


# -- representations ----------------------------------------------------------


def representation_jobs(qwp, seed, n3_cutoff=REP_N3_CUTOFF, ladder=TRACE_LADDER):
    R, S = qwp.representations, qwp.star_algebra
    rng = random.Random(seed)
    jobs = []

    def phase():
        b = rng.randint(3, 9)
        return (rng.randrange(1, b), b)

    def families(n, q0):
        sign = rng.choice((1, -1))
        out = [
            ("sphere", S.AlgebraPresentation.sphere(n), R.RepSpec("sphere_pi", q0, lam=phase())),
            ("sigma", S.AlgebraPresentation.sigma(n), R.RepSpec("sigma_pi", q0, lam=phase(), sign=sign)),
        ]
        out += [
            (f"bar k={k}", S.AlgebraPresentation.sphere(n), R.RepSpec("bar_pi", q0, k=k))
            for k in range(n + 1)
        ]
        return out

    def residual_job(label, pres, spec, space):
        def check(out, _):
            if out["empty_interior"]:
                return "empty interior"
            if out["max_residual"] > TOLERANCE:
                return f"residual {out['max_residual']!r} above {TOLERANCE}"
            return None

        return Job(f"residual {label} n={space.n} q0={spec.q0} cutoff={space.cutoff}",
                   lambda: R.relation_residual(pres, spec, space), check)

    def sector_job(label, spec, m, space):
        def check(out, _):
            if not out["all_invariant"]:
                return "a subalgebra generator leaves its sector"
            if m > 1 and out["control_z0"]["invariant"]:
                return "the z0 control is sector-invariant"
            return None

        return Job(f"sectors {label} n={space.n} m={m} q0={spec.q0}",
                   lambda: R.sector_split_check(spec, m, space), check)

    grid = [(n, q0, REP_CUTOFF) for n in (1, 2) for q0 in Q0_VALUES]
    grid.append((3, rng.choice(Q0_VALUES), n3_cutoff))
    for n, q0, cutoff in grid:
        space = R.TruncatedSpace(n, cutoff)
        for label, pres, spec in families(n, q0):
            jobs.append(residual_job(label, pres, spec, space))
        for m in range(1, 5):
            jobs.append(sector_job("sphere", R.RepSpec("sphere_pi", q0, lam=phase()), m, space))
            jobs.append(sector_job(
                "sigma", R.RepSpec("sigma_pi", q0, lam=phase(), sign=rng.choice((1, -1))), m, space
            ))

    for n in (1, 2, 3):
        q0 = rng.choice(Q0_VALUES)
        element = S.make_named_element("b", {"i": 0, "j": 0}, S.AlgebraPresentation.sphere(n))
        for i, cutoff in enumerate(ladder):
            key = f"trace n={n} q0={q0} cutoff={cutoff}"
            previous = f"trace n={n} q0={q0} cutoff={ladder[i - 1]}" if i else None

            def check(out, outputs, previous=previous, n=n, q0=q0):
                if out["series_closed_form"] != float(1 / (1 - q0) ** n):
                    return "comparison series closed form is wrong"
                if previous is None:
                    return None
                before = outputs.get(previous)
                if before is None:
                    return "previous cutoff of the ladder is missing"
                gap = abs(out["partial_trace"] - before["partial_trace"])
                if gap > before["tail_bound"]:
                    return f"Cauchy gap {gap!r} exceeds the tail bound {before['tail_bound']!r}"
                return None

            def run(element=element, n=n, q0=q0, cutoff=cutoff):
                return R.fredholm_trace(element, n, 1, q0, cutoff)

            jobs.append(Job(key, run, check))

    for n in (1, 2):
        for m in (1, 2, 3):
            for cutoff in (4, 8):
                q0 = rng.choice(Q0_VALUES)
                space = R.TruncatedSpace(n, cutoff)
                jobs.append(Job(
                    f"distinct n={n} m={m} q0={q0} cutoff={cutoff}",
                    lambda m=m, n=n, q0=q0, space=space: R.eigenvalue_distinctness(m, n, q0, space),
                    lambda out, _: None if out["distinct"] else "diagonal spectrum collides",
                ))
    control_space = R.TruncatedSpace(2, 6)
    jobs.append(Job(
        "distinct control q0=1",
        lambda: R.eigenvalue_distinctness(2, 2, Fraction(1), control_space),
        lambda out, _: None
        if not out["distinct"] and out["index_collisions"]
        else "the classical q0=1 collapse is not detected",
    ))
    rng.shuffle(jobs)
    return jobs


# -- cli-session ----------------------------------------------------------------


def lens_survey():
    """Candidate weight tuples per rung of the size ladder, before screening."""
    rng = random.Random(LENS_SURVEY_SEED)
    return {
        (N, k): [tuple(rng.randrange(N) for _ in range(k)) for _ in range(LENS_CANDIDATES)]
        for N, k in LENS_RUNGS
    }


def lens_argv(N, weights):
    return ["ktheory", "lens", "--N", str(N), "--weights", ",".join(map(str, weights))]


def _expression(rng, kind, n, terms, length):
    """A random sum of ``terms`` words of ``length`` letters, each with a coefficient."""
    letters = [f"z{i}" for i in range(n + 1)]
    letters += [letter + "*" for letter in letters]
    if kind == "sigma":
        letters += ["w", "w*"]
    coeffs = ("", "", "q ", "q^-2 ", "2 ", "1/3 ", "(1 - q^2) ")
    return " + ".join(
        rng.choice(coeffs) + " ".join(rng.choice(letters) for _ in range(length))
        for _ in range(terms)
    )


def cli_pool():
    """Every command the session may send except the lens ladder.

    kind -> groups; the commands of a group share a shape (command, space,
    sizes) and differ only in values, so they cost about the same.  A pass
    sends one command of every group, so a seed changes inputs, not cost.
    """
    rng = random.Random(CLI_POOL_SEED)
    pool = {
        "teardrop": [[["ktheory", "teardrop", str(n), str(m)] for m in range(1, 6)]
                     for n in range(1, 5)],
        "real-teardrop": [[["ktheory", "real-teardrop", str(n), str(m)] for m in range(1, 6)]
                          for n in range(1, 4)],
        "normalize": [
            [["normalize", _expression(rng, kind, n, terms, length), "--space", kind, "--n", str(n)]
             for _ in range(EXPRESSION_VARIANTS)]
            for kind, n in PRESENTATIONS for terms in (1, 2) for length in (2, 3, 4)
        ],
        "degree": [],
        "certify": [[argv] for argv in CERTIFY_COMMANDS],
        "rep-verify": [],
        "rep-sectors": [],
        "rep-fredholm": [],
    }
    for space in DEGREE_SPACES:
        weights = space[space.index("--weights") + 1]
        kind, n = space[1], weights.count(",")
        pres_kind = "sigma" if kind in ("sigma", "rp") else "sphere"
        for terms in (1, 2):
            for length in (2, 3):
                pool["degree"].append([
                    ["grading", "degree", _expression(rng, pres_kind, n, terms, length)] + space
                    for _ in range(EXPRESSION_VARIANTS)
                ])
    q0s = ("1/4", "1/2", "3/4")
    for n in (1, 2):
        def variants(head, tail=()):
            return [head + ["--n", str(n), "--q0", q0, "--cutoff", "6"] + list(tail) for q0 in q0s]

        pool["rep-verify"].append(variants(["rep", "verify", "--family", "sphere", "--lam", "3/7"]))
        pool["rep-verify"].append(
            variants(["rep", "verify", "--family", "sigma", "--lam", "2/5", "--sign", "-1"])
        )
        pool["rep-verify"] += [variants(["rep", "verify", "--family", "bar", "--k", str(k)])
                               for k in range(n + 1)]
        for m in range(1, 5):
            pool["rep-sectors"].append(
                variants(["rep", "sectors", "--family", "sphere", "--m", str(m), "--lam", "1/5"])
            )
            pool["rep-sectors"].append(variants(
                ["rep", "sectors", "--family", "sigma", "--m", str(m), "--lam", "1/5", "--sign", "-1"]
            ))
        for i in range(n + 1):
            for cutoff in ("4", "8", "12"):
                pool["rep-fredholm"].append([
                    ["rep", "fredholm", f"z{i} z{i}*", "--n", str(n), "--m", "1", "--q0", q0,
                     "--cutoff", cutoff]
                    for q0 in q0s
                ])
    return pool


def cli_job(qwp, kind, argv, want):
    C = qwp.cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        code = C.run_command(list(argv), stdout=out, stderr=err)
        return code, out.getvalue()

    def check(out, _):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if want is not None and digest(text) != want:
            return "report bytes differ from the recorded digest"
        report = json.loads(text)
        if report.get("status") != "ok":
            return f"report status {report.get('status')!r}"
        if kind == "lens":
            N, weights = report["N"], report["weights"]
            coprime = all(
                math.gcd(a, b) == 1 for i, a in enumerate(weights) for b in weights[i + 1 :]
            )
            expected = sum(math.gcd(N, m) for m in weights) - (len(weights) - 1)
            if coprime and report["K1"]["rank"] != expected:
                return f"K1 rank {report['K1']['rank']} != gcd formula {expected}"
        return None

    return Job(f"{kind}: {' '.join(argv)}", run, check, record=lambda out: digest(out[1]))


def cli_jobs(qwp, seed, ref, tiny=False):
    """One command per lens rung and per pool group, the variant drawn by the seed."""
    rng = random.Random(seed)
    digests = ref["cli"]["digests"]
    excluded = {entry["input"] for entry in ref["cli"]["excluded"]}
    groups = [("lens", [lens_argv(N, w) for w in ref["cli"]["lens_candidates"][f"{N},{k}"]])
              for N, k in LENS_RUNGS]
    groups += [(kind, group) for kind, kind_groups in cli_pool().items() for group in kind_groups]
    jobs = []
    for kind, group in groups[::10] if tiny else groups:
        usable = [argv for argv in group if " ".join(argv) not in excluded]
        if not usable:
            continue
        argv = rng.choice(usable)
        want = digests.get(" ".join(argv)) if kind in EXACT_CLI_KINDS else None
        jobs.append(cli_job(qwp, kind, argv, want))
    rng.shuffle(jobs)
    return jobs


# -- entry point ----------------------------------------------------------------


def generate(name, seed, qwp, ref, tiny=False):
    """The job list of one workload for one seed; ``tiny`` shrinks it for smoke runs."""
    if name == "confluence":
        return confluence_jobs(qwp, seed, ref, words=12 if tiny else CONFLUENCE_WORDS)
    if name == "certificates":
        return certificate_jobs(qwp, seed, ref, tiny)
    if name == "representations":
        if tiny:
            return representation_jobs(qwp, seed, n3_cutoff=3, ladder=(2, 4, 6))
        return representation_jobs(qwp, seed)
    if name == "cli-session":
        return cli_jobs(qwp, seed, ref, tiny)
    raise ValueError(f"unknown workload {name!r}")
