"""The three benchmark workloads: seeded inputs, one timed item, and its checks.

Every workload writes its generated sets as set files in the program's JSON
format during set-up, and each item loads fresh objects from those files, so
no per-object cache of the program survives from one item to the next.  The
item stream of a run is fixed by the seed: item j of a seed is the same set
(and, for dense-cli, the same command) in every run, whatever the speed.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

# Calls go through the module attributes so that the tracer's wrappers see them.
from energylab import cli, constructors, energy, group, setfun, structure, verify

import npref

FROZEN_DIR = Path(__file__).resolve().parent / "frozen"
DEFAULT_SEED = 0


def derive_key(*parts) -> int:
    """A 64-bit generator key for one input, from the run seed and the input's place."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def digest(*parts) -> str:
    """A short digest of the decimal text of `parts`, as stored in the frozen outputs."""
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()[:8]


def draw_set(g, density: float, size: int, *key) -> setfun.GSet:
    """`constructors.random_set` at the given density, redrawn (along the seeded key
    sequence) until the set has exactly `size` members."""
    attempt = 0
    while True:
        A = constructors.random_set(g, density, derive_key(*key, attempt))
        if A.card == size:
            return A
        attempt += 1


def write_set(path: Path, A: setfun.GSet | None) -> None:
    path.write_text(json.dumps(A.to_dict() if A is not None else None))


def read_set(path: Path) -> setfun.GSet | None:
    payload = json.loads(path.read_text())
    return setfun.GSet.from_dict(payload) if payload is not None else None


def load_frozen(name: str):
    path = FROZEN_DIR / f"{name}.json.gz"
    if not path.is_file():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


class Outcome:
    """What one item produced: its checks, failures and canonical record."""

    def __init__(self, index: int, seconds: float):
        self.index = index
        self.seconds = seconds
        self.checks = 0
        self.skips = 0
        self.failures: list[str] = []
        self.record: dict = {}
        self.frozen_checked = False
        self.reference_checked = False

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# -- verification-suite workloads ------------------------------------------------------


def check_records(results) -> dict:
    """(tag, lhs, rhs, status) of every CheckResult, keyed by tag, values digested."""
    out: dict[str, list] = {}
    for r in results:
        key = r.tag
        n = 2
        while key in out:
            key = f"{r.tag}#{n}"
            n += 1
        out[key] = [r.status, digest(r.lhs, r.rhs)]
    return out


def compare_frozen(frozen: dict, current: dict) -> list[str]:
    """Every frozen non-skip record must reappear unchanged.  A frozen skip may
    turn into a check that runs, and new records may appear; neither may fail,
    which the status check on the current results already enforces."""
    problems = []
    for tag, (status, dig) in frozen.items():
        if status == "skip":
            continue
        got = current.get(tag)
        if got is None:
            problems.append(f"{tag}: missing, was {status}")
        elif got != [status, dig]:
            problems.append(f"{tag}: {got[0]} {got[1]} != frozen {status} {dig}")
    return problems


class SuiteWorkload:
    """Shared evaluation for workloads whose items run verification suites."""

    name = ""
    pool_size = 0
    config = verify.VerifyConfig()

    def __init__(self, seed: int):
        self.seed = seed
        frozen = load_frozen(self.name) if seed == DEFAULT_SEED else None
        self.frozen = frozen["items"] if frozen else []

    def set_paths(self, directory: Path, slot) -> tuple[Path, Path]:
        return directory / f"{slot}_A.json", directory / f"{slot}_B.json"

    def generate(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for slot in ["warm", *range(self.pool_size)]:
            A, B = self.make_instance(slot)
            pa, pb = self.set_paths(directory, slot)
            write_set(pa, A)
            write_set(pb, B)

    def prepare(self, directory: Path, j):
        """Untimed: load fresh sets for item j; return the timed call and the
        digest of its input."""
        slot = j if j == "warm" else j % self.pool_size
        A, B = (read_set(p) for p in self.set_paths(directory, slot))
        frozen = self.frozen[slot] if j != "warm" and slot < len(self.frozen) else None
        return (lambda: self.run_item(A, B, f"{self.name}#{j}")), (input_digest(A, B), frozen)

    def evaluate(self, outcome: Outcome, raw, meta) -> None:
        results, extra = raw
        digest_in, frozen = meta
        outcome.checks = len(results)
        outcome.skips = sum(r.status == "skip" for r in results)
        for r in results:
            if r.status == "fail":
                outcome.failures.append(f"{r.tag} failed: {r.lhs} vs {r.rhs} {r.note}")
        record = check_records(results)
        for tag, ok, lhs, rhs in extra:
            record[tag] = ["pass" if ok else "fail", digest(lhs, rhs)]
            if not ok:
                outcome.failures.append(f"{tag} failed: {lhs} vs {rhs}")
        outcome.record = {"input": digest_in, "checks": record}
        if frozen is not None:
            outcome.frozen_checked = True
            if frozen["input"] != digest_in:
                outcome.failures.append("generated input differs from the frozen input")
            else:
                outcome.failures.extend(compare_frozen(frozen["checks"], record))


def input_digest(A: setfun.GSet, B: setfun.GSet | None) -> str:
    return digest(A.to_dict(), B.to_dict() if B is not None else None)


class Corpus(SuiteWorkload):
    """Seeded random sets in the four frozen-corpus shapes, each put through what
    `energylab corpus` runs per item: identity, inequality and ratio suites and
    the algorithm audits."""

    name = "corpus"
    calibration = "interp"
    # energylab.verify.CORPUS_SHAPES, with |A| fixed at round(density * N) so that
    # a run's cost does not hinge on a few large draws.
    SHAPES = (("z101", (101,), 0.16), ("z256", (256,), 0.11),
              ("f2_8", (2,) * 8, 0.11), ("f2_10", (2,) * 10, 0.030))
    pool_size = 128

    def make_instance(self, slot):
        shape = 0 if slot == "warm" else slot % len(self.SHAPES)
        name, factors, density = self.SHAPES[shape]
        g = group.make_group(factors)
        size = round(density * g.size)
        A = draw_set(g, density, size, self.name, self.seed, slot, "A")
        B = draw_set(g, density, size, self.name, self.seed, slot, "B") if name == "z101" else None
        return A, B

    def run_item(self, A, B, label):
        cfg = self.config
        results = (verify.run_identity_suite(A, B, cfg) + verify.run_inequality_suite(A, B, cfg)
                   + verify.run_ratio_report(A, cfg)
                   + verify.run_algorithm_audits(verify.CorpusItem(label, A, B)))
        return results, []


class ScanSmall(SuiteWorkload):
    """Sets of 14-18 members, where the exhaustive 2^m subset scans dominate: the
    ratio report and identity suite, then the connectedness-extraction path of
    acceptance criterion 6 with its exhaustive gamma re-check."""

    name = "scan-small"
    calibration = "stream"
    GROUPS = ((101,), (256,), (2,) * 8)
    SIZES = (14, 15, 16, 17, 18)
    pool_size = 60
    BETA, RHO = 0.5, 0.25

    def make_instance(self, slot):
        if slot == "warm":
            factors, size = self.GROUPS[0], self.SIZES[0]
        else:
            size = self.SIZES[slot % len(self.SIZES)]
            factors = self.GROUPS[(slot // len(self.SIZES)) % len(self.GROUPS)]
        g = group.make_group(factors)
        return draw_set(g, size / g.size, size, self.name, self.seed, slot), None

    def run_item(self, A, B, label):
        cfg = self.config
        results = verify.run_ratio_report(A, cfg) + verify.run_identity_suite(A, None, cfg)
        q = energy.WeightKernel.from_difference(A.group, setfun.set_correlate(A, A), psd=True)
        out, steps = structure.extract_connected_subset(A, q, self.BETA, 1.0, self.RHO)
        kept = int(q.energy(out, out))
        start = int(q.energy(A, A))
        gamma, _ = structure.connectedness_gamma(out, 2, self.BETA)
        floor = structure.connected_extraction_gamma_floor(2, self.BETA, steps)
        # the survivor-energy guarantee, strict once a removal happened
        shrink = (1 - Fraction(self.RHO)) ** (2 * steps) * start
        extra = [
            ("c6.survivor", True, steps, out.members.tolist()),
            ("c6.energy", kept > shrink if steps else kept == shrink, kept, shrink),
            ("c6.gamma", gamma >= floor * (1 - 1e-12), repr(gamma), repr(floor)),
        ]
        return results, extra


# -- CLI workload ----------------------------------------------------------------------


class DenseCli:
    """`energylab.cli.main` called in-process on set files of dense random sets, one
    command per item.  Densities put every set past the pair-path limit
    (|A|^2 > 2e6), so correlations take the roll path with |A| N work."""

    name = "dense-cli"
    calibration = "gather"
    GROUPS = {
        "f2_14": ((2,) * 14, 0.10),
        "f2_16": ((2,) * 16, 0.025),
        "z16384": ((16384,), 0.10),
        "z2x3x5x7x11": ((2, 3, 5, 7, 11), 0.75),
    }
    COMMANDS = {
        "E2": ["energy", "--kind", "E", "--k", "2"],
        "E3": ["energy", "--kind", "E", "--k", "3"],
        "E4": ["energy", "--kind", "E", "--k", "4"],
        "E1.5": ["energy", "--kind", "E", "--k", "1.5"],
        "T2": ["energy", "--kind", "T", "--k", "2"],
        "sigma": ["energy", "--kind", "sigma"],
        "regular-part": ["extract", "--algo", "regular-part"],
        "translates": ["extract", "--algo", "translates"],
        "gowers2": ["gowers", "--d", "2"],
    }
    # Greedy translates run where the Python-int masks are widest (2^16 bits) and
    # on the cyclic group; the order-2 uniformity count runs on the mixed group
    # only, because its slice cache holds N masks of N bytes (4 GiB at N = 2^16).
    SKIP = {("f2_14", "translates"), ("z2x3x5x7x11", "translates")}
    ONLY = {"gowers2": "z2x3x5x7x11"}
    SETS_PER_GROUP = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.plan = [(g, c) for c in self.COMMANDS for g in self.GROUPS
                     if (g, c) not in self.SKIP and self.ONLY.get(c, g) == g]
        frozen = load_frozen(self.name) if seed == DEFAULT_SEED else None
        self.frozen = frozen["values"] if frozen else {}
        self.seen: dict[str, str] = {}
        self.references: dict[str, npref.Reference] = {}

    def path(self, directory: Path, group: str, k: int) -> Path:
        return directory / f"{group}_{k}.json"

    def generate(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, (factors, density) in self.GROUPS.items():
            g = group.make_group(factors)
            for k in range(self.SETS_PER_GROUP):
                A = constructors.random_set(g, density, derive_key(self.name, self.seed, name, k))
                write_set(self.path(directory, name, k), A)

    def item_key(self, j) -> tuple[str, int, str]:
        if j == "warm":
            return "f2_14", 0, "E2"
        group, command = self.plan[j % len(self.plan)]
        return group, (j // len(self.plan)) % self.SETS_PER_GROUP, command

    def prepare(self, directory: Path, j):
        """Return the timed call for item j and the set file it reads."""
        group, k, command = self.item_key(j)
        path = str(self.path(directory, group, k))
        argv = self.COMMANDS[command] + ["--set", path]
        return (lambda: run_cli(argv)), (f"{group}/{k}/{command}", command, path)

    def evaluate(self, outcome: Outcome, raw, meta) -> None:
        code, out, err = raw
        key, command, path = meta
        outcome.checks = 1
        outcome.record = {"key": key}
        if code != 0:
            outcome.failures.append(f"{key}: exit code {code}: {err.strip()}")
            return
        value = canonical_output(command, json.loads(out))
        outcome.record["value"] = value
        first = self.seen.setdefault(key, value)
        if value != first:
            outcome.failures.append(f"{key}: output changed between repeats")
            return
        if key in self.frozen:
            outcome.frozen_checked = True
            if self.frozen[key] != value:
                outcome.failures.append(f"{key}: {value} != frozen {self.frozen[key]}")
        ref = self.references.get(path)
        if ref is None:
            ref = self.references[path] = npref.Reference(path)
        expected = ref.output(command)
        outcome.reference_checked = True
        if expected != value:
            outcome.failures.append(f"{key}: {value} != numpy reference {expected}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def canonical_output(command: str, record: dict) -> str:
    """The decimal value of a quantity, or a digest of an extraction's members."""
    if command == "gowers2":
        return record["count"]
    if command == "translates":
        fam = record["family"]
        return npref.digest_json({"count": fam["count"], "min_size": fam["min_size"],
                                  "members": [[m["tag"], m["elements"]] for m in fam["members"]]})
    if command == "regular-part":
        return npref.digest_json(record["result"]["elements"])
    return record["value"]


WORKLOADS = {"corpus": Corpus, "scan-small": ScanSmall, "dense-cli": DenseCli}
