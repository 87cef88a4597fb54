"""Batch front-end: construct instances, compute quantities, run extraction
algorithms and verification suites, emit JSON/CSV reports.

All randomness flows through explicit --seed flags; numbers are serialized as
decimal strings so exact integers survive JSON.  Exit codes: 0 success,
1 suite failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import constructors
from .energy import WeightKernel, energy_k, restricted_energy, sigma_restricted, t_k
from .gowers import gowers_u
from .group import parse_group
from .setfun import INT64_SAFE_BOUND, GSet, difference_set, set_correlate, sigma_k
from .structure import (PreconditionError, connected_extraction_gamma_floor,
                        extract_connected_subset, greedy_disjoint_slices,
                        greedy_disjoint_translates, popular_slice_family, regular_part,
                        small_doubling_subset_oracle)
from .verify import (VerifyConfig, results_to_json, run_corpus, run_identity_suite,
                     run_inequality_suite, run_ratio_report)


def load_set(path: str) -> GSet:
    with open(path) as fh:
        return GSet.from_dict(json.load(fh))


def save_json(payload, path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


# the InstanceSpec parameters of each construct kind, read off the parsed options
_CONSTRUCT_PARAMS = {
    "subspace": lambda a: {"n": a.n, "dim": a.dim},
    "dissociated": lambda a: {"n": a.n, "k": a.k},
    "hplusl": lambda a: {"n": a.n, "dim": a.dim, "K": a.k},
    "ap": lambda a: {"N": a.modulus, "start": a.start, "step": a.step, "length": a.length},
    "random": lambda a: {"group": parse_group(a.group).factors, "density": a.density},
    "cosetUnion": lambda a: {"n": a.n, "dims": [int(d) for d in a.blocks.split(",")]},
}


def _cmd_construct(args) -> int:
    spec = constructors.InstanceSpec(args.kind, _CONSTRUCT_PARAMS[args.kind](args), args.seed)
    save_json(spec.build().to_dict(), args.out)
    return 0


def _cmd_energy(args) -> int:
    A = load_set(args.set)
    record = {"command": "energy", "kind": args.kind, "k": args.k,
              "group": list(A.group.factors), "card": A.card}
    k = float(args.k)
    if args.kind in ("T", "sigma") and not k.is_integer():
        raise ValueError(f"--kind {args.kind} takes an integer --k, not {args.k}")
    if args.kind == "E":
        if args.restrict:
            P = load_set(args.restrict)
            val = restricted_energy(A, P, k)
            record["restricted"] = True
        else:
            val = energy_k(A, k)
        record["value"] = val.as_decimal_string()
    elif args.kind == "T":
        record["value"] = str(t_k(A, int(k)))
    elif args.kind == "sigma":
        if args.restrict:
            P = load_set(args.restrict)
            record["value"] = str(sigma_restricted(A, P))
            record["restricted"] = True
        else:
            record["value"] = str(sigma_k(A, int(k)))
    save_json(record, args.out)
    return 0


def _cmd_gowers(args) -> int:
    A = load_set(args.set)
    gv = gowers_u(A, args.d)
    record = {"command": "gowers", "d": args.d, "count": str(gv.count),
              "group": list(A.group.factors), "card": A.card}
    if args.normalized:
        record["normalized"] = gv.normalized
    save_json(record, args.out)
    return 0


def _family_payload(fam) -> dict:
    prov = {k: v for k, v in fam.provenance.items()}
    return {
        "count": fam.count,
        "min_size": fam.min_size,
        "members": [{"tag": tag if isinstance(tag, int) else list(tag),
                     "elements": S.members.tolist()} for tag, S in fam.members],
        "provenance": prov,
    }


def _cmd_extract(args) -> int:
    A = load_set(args.set)
    record: dict = {"command": "extract", "algo": args.algo, "seed": args.seed}
    if args.algo == "translates":
        B = load_set(args.set2) if args.set2 else A
        record["family"] = _family_payload(greedy_disjoint_translates(A, B))
    elif args.algo == "slices":
        D = load_set(args.set2) if args.set2 else difference_set(A, A)
        record["family"] = _family_payload(greedy_disjoint_slices(A, D))
    elif args.algo == "random-family":
        record["family"] = _family_payload(popular_slice_family(A, args.seed))
    elif args.algo == "connected":
        ca, power = set_correlate(A, A), max(1, args.power)
        if int(ca.max()) ** power >= INT64_SAFE_BOUND:
            raise ValueError(f"kernel (A o A)^{power} reaches INT64_SAFE_BOUND = 2^62 "
                             f"(max (A o A) = {int(ca.max())}); lower --power")
        q = WeightKernel.from_difference(A.group, ca ** power, psd=True)
        out, steps = extract_connected_subset(A, q, args.beta1, args.beta2, args.rho)
        record["result"] = {"elements": out.members.tolist(), "steps": steps,
                            "gamma_floor": connected_extraction_gamma_floor(
                                power + 1, args.beta1, steps)}
    elif args.algo == "regular-part":
        out = regular_part(A)
        record["result"] = {"elements": out.members.tolist()}
    elif args.algo == "oracle":
        out, doubling = small_doubling_subset_oracle(A, args.min_frac)
        record["result"] = {"elements": out.members.tolist(), "doubling": doubling}
    save_json(record, args.out)
    return 0


def _write_csv(results, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["name", "tag", "lhs", "rhs", "status",
                                                "ratio", "note"])
        writer.writeheader()
        for r in results:
            writer.writerow(r.to_dict())


def _cmd_verify(args) -> int:
    A = load_set(args.set)
    B = load_set(args.set2) if args.set2 else None
    cfg = VerifyConfig(seed=args.seed)
    if args.suite == "identity":
        results = run_identity_suite(A, B, cfg)
    elif args.suite == "inequality":
        results = run_inequality_suite(A, B, cfg)
    else:
        results = run_ratio_report(A, cfg)
    if args.out:
        Path(args.out).write_text(results_to_json(results) + "\n")
    else:
        print(results_to_json(results))
    if args.csv:
        _write_csv(results, args.csv)
    failures = [r for r in results if r.status == "fail"]
    for r in failures:
        print(f"FAIL {r.tag}: {r.lhs} vs {r.rhs} {r.note}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_corpus(args) -> int:
    cfg = VerifyConfig(seed=args.seed)
    summary = run_corpus(seeds=args.seeds, config=cfg,
                         include_random_family=not args.skip_random_family)
    save_json(summary, args.out)
    return 1 if summary["counts"]["fail"] else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="energylab",
                                 description="exact additive-combinatorics workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="generate an instance and write it as JSON")
    c.add_argument("--kind", required=True, choices=list(_CONSTRUCT_PARAMS))
    c.add_argument("--n", type=int, default=8, help="boolean rank for subspace/hplusl/cosetUnion")
    c.add_argument("--dim", type=int, default=0)
    c.add_argument("--k", type=int, default=1, help="piece count for hplusl/dissociated")
    c.add_argument("--modulus", type=int, default=101)
    c.add_argument("--start", type=int, default=0)
    c.add_argument("--step", type=int, default=1)
    c.add_argument("--length", type=int, default=8)
    c.add_argument("--group", default="101", help="comma-separated cyclic factors")
    c.add_argument("--density", type=float, default=0.2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--blocks", default="2,2", help="block dims for cosetUnion")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("energy", help="compute an energy functional")
    e.add_argument("--set", required=True)
    e.add_argument("--kind", required=True, choices=["E", "T", "sigma"])
    e.add_argument("--k", default="2")
    e.add_argument("--restrict", default=None, help="restriction set file (E^P_k or sigma_P)")
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_energy)

    gw = sub.add_parser("gowers", help="uniformity count of a set indicator")
    gw.add_argument("--set", required=True)
    gw.add_argument("--d", type=int, required=True)
    gw.add_argument("--normalized", action="store_true")
    gw.add_argument("--out", default=None)
    gw.set_defaults(func=_cmd_gowers)

    x = sub.add_parser("extract", help="run a constructive extraction algorithm")
    x.add_argument("--algo", required=True,
                   choices=["translates", "slices", "random-family", "connected",
                            "regular-part", "oracle"])
    x.add_argument("--set", required=True)
    x.add_argument("--set2", default=None)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--beta1", type=float, default=0.5)
    x.add_argument("--beta2", type=float, default=1.0)
    x.add_argument("--rho", type=float, default=0.25)
    x.add_argument("--power", type=int, default=1, help="correlation power for the kernel")
    x.add_argument("--min-frac", type=float, default=0.5, dest="min_frac")
    x.add_argument("--out", default=None)
    x.set_defaults(func=_cmd_extract)

    v = sub.add_parser("verify", help="run a verification suite on an instance")
    v.add_argument("--set", required=True)
    v.add_argument("--set2", default=None)
    v.add_argument("--suite", required=True, choices=["identity", "inequality", "ratio"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.add_argument("--csv", default=None)
    v.set_defaults(func=_cmd_verify)

    cp = sub.add_parser("corpus", help="run every suite over the frozen corpus")
    cp.add_argument("--seeds", type=int, default=100, help="random sets per group shape")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--skip-random-family", action="store_true",
                    help="skip the large probabilistic-family instance")
    cp.add_argument("--out", default=None)
    cp.set_defaults(func=_cmd_corpus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
