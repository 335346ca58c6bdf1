"""Command line interface.

Every subcommand reads one JSON document (``--input FILE``, or standard
input when the flag is ``-``), runs one workbench computation, and emits
one JSON report with a fixed envelope::

    {
      "schema": 1,
      "command": "...",
      "generated_at": "...",        # UTC timestamp, the only varying field
      "parameters": {...},          # what was asked
      "results": {...},             # what was computed
      "failures": [...]             # violated identities, empty when fine
    }

The process exits 0 when ``failures`` is empty, 1 when a checked
identity failed, and 2 on malformed input, an exhausted search budget,
or an ``--out`` path that cannot be written (the error envelope then
goes to standard output).  Reports are deterministic byte for byte apart
from the timestamp.
Negative mathematical verdicts of query-style commands (a structure that
simply is not homogeneous, a set that is not dense, a pair of targets
with no common ancestor, reported with null ``c``, ``f`` and ``g``) are
results, not failures; failures are reserved for identities that the
underlying theory says must hold.

:func:`main` returns the exit code (argument errors and ``--help`` raise
``SystemExit``, as argparse does) and may be called any number of times
in one process: the argument parser is built on the first call and
reused, and each call dispatches through ``HANDLERS``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from typing import List, Optional, Tuple

from .backforth import (
    BackAndForthInterpolator,
    automorphism_from,
    noncommuting_witness,
    transitivity_witness,
)
from .clone import (
    CloneHom,
    close_fragment,
    conjugate_fragment,
    enumerate_clone_homs,
    fragment_from_json,
    verify_conjugation_lifting,
)
from .errors import NoCommonAncestor, WorkbenchError
from .extend import (
    ContinuityModulus,
    HomMap,
    check_conjugation_transfer,
    check_hom_law,
    check_well_defined,
)
from .fnspace import (
    Bijection,
    carrier_from_json,
    element_from_json,
    element_to_json,
    exact_int,
    make_op,
    window,
)
from .monoid import (
    centre,
    endo_report,
    is_transitive,
    is_weakly_directed,
    monoid_from_json,
    weakly_directed_witnesses,
)
from .structures import (
    catalog,
    complement_expansion,
    emb_monoid,
    end_monoid,
    is_homogeneous,
    structure_from_json,
)
from .topology import density_profile, window_chain

SCHEMA = 1


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def _load_input(ns) -> dict:
    if ns.input is None:
        raise ValueError("this command needs --input FILE (or '-' for stdin)")
    if ns.input == "-":
        return json.load(sys.stdin)
    with open(ns.input, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fragment_from(data: dict, ns):
    """A fragment from either an explicit table listing or generators."""
    if "generators" in data:
        carrier = carrier_from_json(data["carrier"])
        gens = [make_op(carrier, exact_int(g["arity"], "arity"),
                        table=g["table"])
                for g in data["generators"]]
        return close_fragment(gens, max_arity=ns.max_arity, op_cap=ns.op_cap)
    return fragment_from_json(data)


def _structure_from(data: dict):
    if isinstance(data, str):
        return catalog(data)
    return structure_from_json(data)


def _seed_pairs(structure, pairs):
    carrier = structure.carrier
    return [(element_from_json(carrier, a), element_from_json(carrier, b))
            for a, b in pairs]


def _points_from(structure, data, ns) -> list:
    carrier = structure.carrier
    points = [element_from_json(carrier, p) for p in data.get("points", [])]
    rng = random.Random(ns.seed)
    for _ in range(ns.trials):
        # the carrier of a catalog structure: the rationals or the graph's
        if carrier.kind == "rationals":
            points.append(Fraction(rng.randint(-99, 99), rng.randint(1, 12)))
        else:
            points.append(rng.randint(0, 1023))
    return list(dict.fromkeys(points))


def _enc(carrier, value):
    if value is None:
        return None
    return element_to_json(carrier, value)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (parameters, results, failures)
# ---------------------------------------------------------------------------

def cmd_verify_lifting(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    source = _fragment_from(data["source"], ns)
    theta = Bijection.from_table(source.carrier, data["theta"])
    target = _fragment_from(data["target"], ns) if "target" in data else None
    if "mapping" in data:
        by_table = {(n, op.table): op for n, op in source.all_ops()}
        if target is None:
            target = conjugate_fragment(source, theta)
        tgt_by_table = {(n, op.table): op for n, op in target.all_ops()}
        mapping = {}
        for entry in data["mapping"]:
            n = exact_int(entry["arity"], "arity")
            f = by_table[(n, tuple(entry["from"]))]
            mapping[f] = tgt_by_table[(n, tuple(entry["to"]))]
        xi = CloneHom(source, target, mapping)
    else:
        xi = CloneHom.conjugation(source, theta, target)
    report = verify_conjugation_lifting(xi, theta)
    failures = []
    if report.conclusion == "counterexamples-found":
        failures.append(
            f"{len(report.counterexamples)} operation(s) disagree with "
            f"conjugation despite the hypotheses")
    parameters = {
        "theta": list(data["theta"]),
        "source_ops": source.op_count(),
        "max_arity": source.max_arity,
    }
    results = {"report": report.to_json()}
    if report.conclusion == "hypotheses-not-met":
        unmet = [k for k, v in report.hypotheses.items() if not v]
        results["unmet_hypotheses"] = unmet
    return parameters, results, failures


def cmd_enumerate_homs(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    source = _fragment_from(data["source"], ns)
    target = _fragment_from(data["target"], ns) if "target" in data else source
    homs = enumerate_clone_homs(source, target)
    entries = []
    for hom in homs:
        mappings = [
            {"arity": n, "from": list(op.table),
             "to": list(hom.image(op).table)}
            for n, op in source.all_ops()
        ]
        entries.append({
            "mappings": mappings,
            "surjective": hom.is_surjective(),
            "injective": hom.is_injective(),
        })
    parameters = {"source_ops": source.op_count(),
                  "target_ops": target.op_count()}
    results = {"count": len(homs), "homs": entries}
    return parameters, results, []


def _extension_setting(data, ns):
    """Build (hom, target_op, second_op, points, carrier) from input."""
    if "structure" in data:
        structure = _structure_from(data["structure"])
        carrier = structure.carrier
        theta = automorphism_from(structure,
                                  _seed_pairs(structure, data["theta_seed"]))
        source = BackAndForthInterpolator(structure)
        target = automorphism_from(
            structure, _seed_pairs(structure, data["target_seed"])).as_op()
        second = None
        if "second_seed" in data:
            second = automorphism_from(
                structure, _seed_pairs(structure, data["second_seed"])).as_op()
        hom = HomMap(carrier, source, theta=theta)
        points = _points_from(structure, data, ns)
        return hom, target, second, points, carrier
    carrier = carrier_from_json(data["carrier"])
    source = [make_op(carrier, 1, table=t) for t in data["source"]]
    target = make_op(carrier, 1, table=data["target"])
    second = None
    if "second" in data:
        second = make_op(carrier, 1, table=data["second"])
    if "mapping" in data:
        images = {tuple(e["from"]): make_op(carrier, 1, table=e["to"])
                  for e in data["mapping"]}
        pts = [element_from_json(carrier, p) for p in data["modulus"]]
        modulus = ContinuityModulus(
            fn=lambda args: window(carrier, pts),
            description="fixed window named in the input")
        hom = HomMap(carrier, source,
                     oracle=lambda g: images[g.table], modulus=modulus)
    else:
        theta = Bijection.from_table(carrier, data["theta"])
        hom = HomMap(carrier, source, theta=theta)
    points = [element_from_json(carrier, p)
              for p in data.get("points", range(carrier.size))]
    return hom, target, second, points, carrier


def cmd_check_extension(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    hom, target, second, points, carrier = _extension_setting(data, ns)
    second = second if second is not None else target
    values = [{"point": _enc(carrier, p),
               "value": _enc(carrier, hom.extend_at(target, (p,)))}
              for p in points]
    transfer = (check_conjugation_transfer(hom, target, points)
                if hom.mode == "conjugation" else None)
    law = check_hom_law(hom, target, second, points)
    well = [check_well_defined(hom, target, (p,), extra_paths=ns.trials)
            for p in points]
    failures = []
    if transfer is not None and not transfer["agree"]:
        failures.append("extension disagrees with direct conjugation")
    if not law["agree"]:
        failures.append("extension violates the composition law")
    for p, report in zip(points, well):
        if not report["consistent"]:
            failures.append(
                f"interpolation paths disagree at {_enc(carrier, p)}")
    results = {
        "mode": hom.mode,
        "values": values,
        "transfer": _encode_check(carrier, transfer) if transfer else None,
        "hom_law": _encode_check(carrier, law),
        "well_defined": [
            {"point": _enc(carrier, p),
             "consistent": rep["consistent"],
             "value": _enc(carrier, rep["value"]),
             "paths": rep["paths"],
             "windows": [[_enc(carrier, q) for q in w["window"]]
                         for w in rep["witnesses"]]}
            for p, rep in zip(points, well)
        ],
    }
    parameters = {"points_checked": len(points),
                  "extra_paths": ns.trials, "seed": ns.seed}
    return parameters, results, failures


def _encode_check(carrier, report: dict) -> dict:
    checks = []
    for c in report["checks"]:
        point = c["point"]
        if isinstance(point, tuple):
            point = [_enc(carrier, v) for v in point]
        else:
            point = _enc(carrier, point)
        checks.append({"point": point,
                       "left": _enc(carrier, c["left"]),
                       "right": _enc(carrier, c["right"]),
                       "agree": c["agree"]})
    return {"agree": report["agree"], "checks": checks}


def cmd_density(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    if "structure" in data:
        structure = _structure_from(data["structure"])
        carrier = structure.carrier
        source = BackAndForthInterpolator(structure)
        targets = [automorphism_from(structure, _seed_pairs(structure, s)).as_op()
                   for s in data["target_seeds"]]
    else:
        carrier = carrier_from_json(data["carrier"])
        source = [make_op(carrier, _arity_of(t, carrier), table=t)
                  for t in data["source"]]
        targets = [make_op(carrier, _arity_of(t, carrier), table=t)
                   for t in data["targets"]]
    windows = window_chain(carrier, ns.window_k)
    reports = density_profile(source, targets, windows)
    results = {
        "profile": [
            {"radius": k, "verdict": rep.verdict,
             "matched": rep.matched, "total": rep.total}
            for k, rep in enumerate(reports)
        ]
    }
    parameters = {"targets": len(targets), "window_k": ns.window_k}
    return parameters, results, []


def _arity_of(table, carrier) -> int:
    n = len(table)
    arity = 0
    size = carrier.size
    total = 1
    # powers of 0 and 1 never grow past 1
    while total < n and size > 1:
        total *= size
        arity += 1
    if total != n:
        raise ValueError(f"table length {n} is not a power of {size}")
    return 1 if size == 1 else arity


def cmd_homogeneity(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    structure = _structure_from(data["structure"] if "structure" in data else data)
    verdict, witness = is_homogeneous(structure, size_limit=ns.size_limit)
    results = {"homogeneous": verdict,
               "witness": witness.to_json() if witness else None,
               "size": structure.carrier.size}
    parameters = {"structure": structure.name or "anonymous",
                  "size_limit": ns.size_limit}
    return parameters, results, []


def cmd_complement_end_emb(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    structure = _structure_from(data["structure"] if "structure" in data else data)
    emb = emb_monoid(structure, size_limit=ns.size_limit)
    expansion = complement_expansion(structure)
    end_exp = end_monoid(expansion, size_limit=ns.size_limit)
    emb_tables = sorted(op.table for op in emb.ops)
    end_tables = sorted(op.table for op in end_exp.ops)
    equal = emb_tables == end_tables
    failures = []
    if not equal:
        failures.append(
            "endomorphisms of the complement expansion differ from the "
            "embeddings of the structure")
    results = {
        "embeddings": len(emb_tables),
        "expansion_endomorphisms": len(end_tables),
        "equal": equal,
        "maps": [list(t) for t in emb_tables],
    }
    parameters = {"structure": structure.name or "anonymous",
                  "size": structure.carrier.size}
    return parameters, results, failures


def cmd_injective_endos(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    m = monoid_from_json(data["monoid"])
    fixed = []
    for entry in data.get("fixed", []):
        if isinstance(entry, list):
            fixed.append(make_op(m.carrier, 1, table=entry))
        elif type(entry) is int and 0 <= entry < len(m.ops):
            fixed.append(m.ops[entry])
        else:
            raise ValueError(f"fixed entry {entry!r} is neither a table nor "
                             f"a member index below {len(m.ops)}")
    report = endo_report(m, fixed)
    parameters = {"monoid_size": len(m.ops), "fixed": len(fixed)}
    return parameters, {"report": report}, []


def cmd_centre_witness(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    if "monoid" in data:
        m = monoid_from_json(data["monoid"])
        central = centre(m)
        results = {
            "centre": [list(op.table) for op in central],
            "trivial": len(central) == 1,
        }
        parameters = {"monoid_size": len(m.ops)}
        return parameters, results, []
    structure = _structure_from(data["structure"])
    f = automorphism_from(structure, _seed_pairs(structure, data["seed"]))
    report = noncommuting_witness(structure, f, probe_budget=ns.probe_budget)
    parameters = {"structure": structure.name,
                  "probe_budget": ns.probe_budget}
    return parameters, {"report": report.to_json()}, []


def cmd_transitivity(ns) -> Tuple[dict, dict, list]:
    data = _load_input(ns)
    if "monoid" in data:
        m = monoid_from_json(data["monoid"])
        results = {"transitive": is_transitive(m),
                   "weakly_directed": is_weakly_directed(m)}
        if "pairs" in data:
            witnesses = []
            for a, b in data["pairs"]:
                try:
                    c, (f, g) = weakly_directed_witnesses(m, (a, b))
                except NoCommonAncestor:
                    witnesses.append({"a": a, "b": b, "f": None, "g": None,
                                      "c": None})
                    continue
                witnesses.append({"a": a, "b": b, "f": list(f.table),
                                  "g": list(g.table), "c": c})
            results["witnesses"] = witnesses
        parameters = {"monoid_size": len(m.ops)}
        return parameters, results, []
    structure = _structure_from(data["structure"])
    carrier = structure.carrier
    a = element_from_json(carrier, data["a"])
    b = element_from_json(carrier, data["b"])
    f, g, c = transitivity_witness(structure, a, b)
    results = {
        "base_point": _enc(carrier, c),
        "f": f.to_json(),
        "g": g.to_json(),
        "f_at_base": _enc(carrier, f(c)),
        "g_at_base": _enc(carrier, g(c)),
    }
    parameters = {"structure": structure.name,
                  "a": _enc(carrier, a), "b": _enc(carrier, b)}
    return parameters, results, []


HANDLERS = {
    "verify-lifting": cmd_verify_lifting,
    "enumerate-homs": cmd_enumerate_homs,
    "check-extension": cmd_check_extension,
    "density": cmd_density,
    "homogeneity": cmd_homogeneity,
    "complement-end-emb": cmd_complement_end_emb,
    "injective-endos": cmd_injective_endos,
    "centre-witness": cmd_centre_witness,
    "transitivity": cmd_transitivity,
}

HELP = {
    "verify-lifting": "check the conjugation-lifting statement on a "
                      "fragment homomorphism",
    "enumerate-homs": "enumerate all fragment homomorphisms by backtracking",
    "check-extension": "extend a conjugation homomorphism pointwise and "
                       "verify well-definedness, transfer, and the "
                       "composition law",
    "density": "window density of one operation set inside another",
    "homogeneity": "decide homogeneity of a finite structure",
    "complement-end-emb": "compare endomorphisms of the complement "
                          "expansion with the embeddings",
    "injective-endos": "injective endomorphisms of a finite monoid fixing "
                       "chosen operations",
    "centre-witness": "centre of a finite monoid, or a noncommuting "
                      "witness on a catalog structure",
    "transitivity": "transitivity and weak directedness, with witnesses",
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="JSON input file, or - for stdin")
    common.add_argument("--out",
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default="json")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for sampled probe points")
    common.add_argument("--window-k", type=int, default=3,
                        help="radius of the largest canonical window")
    common.add_argument("--max-arity", type=int, default=3,
                        help="arity bound when closing generator sets")
    common.add_argument("--op-cap", type=int, default=512,
                        help="operation cap per arity when closing")
    common.add_argument("--trials", type=int, default=3,
                        help="extra sampled points or interpolation paths")
    common.add_argument("--probe-budget", type=int, default=64,
                        help="points examined before giving up a search")
    common.add_argument("--size-limit", type=int, default=7,
                        help="largest structure the exhaustive searches "
                             "accept")
    parser = argparse.ArgumentParser(
        prog="clonelab",
        description="computational workbench for clone fragments, "
                    "operation monoids, and homogeneous structures")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        sub.add_parser(name, help=HELP[name], parents=[common])
    return parser


def _envelope(command: str, parameters: dict, results: dict,
              failures: List[str]) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "parameters": parameters,
        "results": results,
        "failures": failures,
    }


def _render_csv(report: dict) -> str:
    """Flat section,key,value rows; composite values stay JSON-encoded."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    for key in ("schema", "command", "generated_at"):
        writer.writerow(["meta", key, report[key]])
    for section in ("parameters", "results"):
        for key in sorted(report[section]):
            writer.writerow([section, key,
                             json.dumps(report[section][key], sort_keys=True)])
    for i, failure in enumerate(report["failures"]):
        writer.writerow(["failures", str(i), failure])
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in sorted(report["parameters"].items()):
        lines.append(f"  {key}: {value}")
    lines.append("results:")
    for key, value in report["results"].items():
        compact = json.dumps(value, sort_keys=True)
        if len(compact) > 100:
            compact = compact[:97] + "..."
        lines.append(f"  {key}: {compact}")
    if report["failures"]:
        lines.append("failures:")
        lines.extend(f"  - {f}" for f in report["failures"])
    else:
        lines.append("failures: none")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "text":
        payload = _render_text(report)
    elif fmt == "csv":
        payload = _render_csv(report)
    else:
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _error_envelope(command: str, exc: Exception) -> dict:
    return _envelope(command, {}, {}, [f"{type(exc).__name__}: {exc}"])


def main(argv: Optional[List[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.trials < 0:
            raise ValueError(f"--trials must be non-negative, got {ns.trials}")
        parameters, results, failures = HANDLERS[ns.command](ns)
    except (WorkbenchError, ValueError, KeyError, TypeError,
            OSError, json.JSONDecodeError) as exc:
        report, code = _error_envelope(ns.command, exc), 2
    else:
        report = _envelope(ns.command, parameters, results, failures)
        code = 0 if not failures else 1
    try:
        _emit(report, ns.format, ns.out)
    except OSError as exc:
        _emit(_error_envelope(ns.command, exc), ns.format, None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
