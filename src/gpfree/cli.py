"""Command-line front end.

Every subcommand prints an output envelope:

    {"version": ..., "command": [...], "seed": ..., "payload": {...},
     "elapsed_ms": ...}

Identical command + seed + config produce a byte-identical payload
(elapsed_ms excluded).  Exit codes: 0 success, 1 domain error or closed
output pipe, 2 usage error, 3 resource limit.

`process run` and `syndetic search` accept --workers, which has no effect:
both run serially.  Without --workers, a non-integer GPFREE_WORKERS
environment variable still exits 2.  Every command that reads a resource
budget, all but `gp enumerate`, `gp decompose`, `syndetic export` and `bounds
envelope`, takes a --config FILE of key=value lines presetting the budgets of
gpfree.limits.Limits.  The commands whose payload has `rows`, `divisor
table`, `process gaps` and `bounds envelope`, take --format csv, which prints
the rows alone.  A file that cannot be read or written exits 1.

Only `process run` and `divisor mertens` import numpy, inside the command,
so their `elapsed_ms` includes that import; the payload is unchanged.  Long
lists in a payload (`rows`, `values`) go out a fixed-size chunk at a time in
JSON and in CSV alike, with the same text a one-shot dump would give.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterator
from itertools import islice, tee

from . import __version__
from .errors import GPFreeError, ResourceLimit
from .limits import DEFAULT_LIMITS, Limits

WORKERS_ENV = "GPFREE_WORKERS"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(GPFreeError):
    """Malformed command-line input (exit 2)."""


def _check_workers_env() -> None:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            int(env)
        except ValueError:
            raise UsageError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise GPFreeError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GPFreeError(f"cannot read {path}: {exc}") from None


def _load_limits(path: str | None) -> Limits:
    if not path:
        return DEFAULT_LIMITS
    overrides = {}
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in Limits._fields:
            raise GPFreeError(f"unknown config key {key!r}")
        try:  # every budget is an int but the time budget, where NaN would mean no budget
            overrides[key] = float(value) if key == "search_time_budget_s" else int(value)
            if overrides[key] != overrides[key]:
                raise ValueError
        except ValueError:
            raise UsageError(f"config key {key!r} has bad value {value!r}") from None
    return DEFAULT_LIMITS._replace(**overrides)


_ROWS_CHUNK = 1 << 14  # rows per write: no command holds a long list's whole text


def _row_chunks(columns, fmt: str) -> Iterator[str]:
    """`fmt % row` for each row of the equally long `columns`, a chunk of rows at a time."""
    its = [iter(c) for c in columns]
    k = len(its)
    while head := list(islice(its[0], _ROWS_CHUNK)):
        flat = head * k
        for i in range(1, k):
            flat[i::k] = islice(its[i], len(head))
        flat[::k] = head
        yield fmt * len(head) % tuple(flat)


# Each list's row format after ", " in JSON.  A payload's "rows" holds its
# columns, and %r writes an int or finite float as json.dumps and csv do.
_JSON_ROWS = {"rows": ", [%r, %r]", "values": ", %r"}


def _emit(args, payload: dict, seed=None, elapsed_ms: float = 0.0) -> None:
    if getattr(args, "format", "json") == "csv":  # only commands with rows take --format
        sys.stdout.write(",".join(payload["columns"]) + "\r\n")
        sys.stdout.writelines(_row_chunks(payload["rows"], "%r,%r\r\n"))
        return
    # "rows" and "values" go out a chunk at a time where their stand-ins fall in the
    # text: the last NULs in it, as only the command line comes before the payload
    lists = sorted(_JSON_ROWS.keys() & payload.keys())
    envelope = {
        "version": __version__,
        "command": args._argv,
        "seed": seed,
        "payload": {**payload, **dict.fromkeys(lists, "\0")},
        "elapsed_ms": round(elapsed_ms, 3),
    }
    # json.dumps uses the C encoder; json.dump would stream through the Python one
    head, *tails = json.dumps(envelope, sort_keys=True).rsplit(json.dumps("\0"), len(lists))
    sys.stdout.write(head)
    for key, tail in zip(lists, tails):
        columns = payload[key] if key == "rows" else [payload[key]]
        chunks = _row_chunks(columns, _JSON_ROWS[key])
        sys.stdout.write("[" + next(chunks, ", ")[2:])
        sys.stdout.writelines(chunks)
        sys.stdout.write("]" + tail)
    sys.stdout.write("\n")


def _gp_payload(gp) -> dict:
    return {"k": gp.k, "a": gp.a, "b": gp.b, "c": gp.c, "terms": gp.terms()}


# ---------------------------------------------------------------------------
# gp subcommands

def cmd_gp_enumerate(args):
    from . import gpcore
    if args.max_items < 1:
        raise UsageError(f"--max-items must be at least 1, got {args.max_items}")
    stream = gpcore.enumerate_gps(args.k, args.position, args.bound)
    out = [_gp_payload(gp) for gp in islice(stream, args.max_items)]
    return {"gps": out, "truncated": len(out) >= args.max_items}


def cmd_gp_decompose(args):
    from . import gpcore
    try:
        terms = [int(t) for t in args.terms.split(",")]
    except ValueError:
        raise UsageError(f"--terms must be comma-separated integers: {args.terms!r}") from None
    return _gp_payload(gpcore.canonicalize(terms))


def cmd_gp_contains(args):
    from . import gpcore
    text = _read_text(args.input)
    try:
        members = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise GPFreeError(f"bad member in {args.input}: {exc}") from None
    mode = gpcore.INTEGER if args.mode == "int" else gpcore.RATIONAL
    witness = gpcore.contains_gp(members, args.k, mode, args.limits)
    return {"witness": _gp_payload(witness) if witness else None}


# ---------------------------------------------------------------------------
# divisor subcommands

def cmd_divisor_table(args):
    from . import divisor
    spec = divisor.DivisorSpec(args.k, args.i, args.j)  # the record refuses k with i or j
    values = divisor.sieve(divisor.Interval(args.start, args.len), spec, args.limits)
    n = range(args.start + 1, args.start + args.len + 1)
    return {
        "interval": {"x": args.start, "h": args.len},
        "spec": spec.label(),
        "columns": ["n", "value"],
        "rows": (n, values),  # columns, streamed by _emit
        "values": values,
    }


def cmd_divisor_sum(args):
    from . import divisor
    val = divisor.sum_S(divisor.Interval(args.start, args.len), args.i, args.j, args.D,
                        args.limits)
    return {"x": args.start, "h": args.len, "i": args.i, "j": args.j, "D": args.D, "S": val}


def cmd_divisor_mertens(args):
    from . import divisor
    return {"x": args.x, "sum": divisor.mertens_sum(args.x, args.limits)}


# ---------------------------------------------------------------------------
# process subcommands

def cmd_process_run(args):
    from . import process
    cfg = process.ProcessConfig(process.ProcessKind(args.kind), args.n, args.seed)
    created = False
    if args.out:  # find an unwritable --out before the run, not after it
        created = not os.path.exists(args.out)
        try:
            open(args.out, "a").close()
        except OSError as exc:
            raise GPFreeError(f"cannot write {args.out}: {exc.strerror}") from None
    try:
        run_ = process.run(cfg, limits=args.limits)
    except BaseException:
        if created:  # leave no empty file behind a failed run
            os.remove(args.out)
        raise
    doc = process.run_to_dict(run_)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(process.run_to_json(run_))
        except OSError as exc:
            raise GPFreeError(f"cannot write {args.out}: {exc.strerror}") from None
        return {"written": args.out, "counts": doc["counts"], "config": doc["config"]}
    return doc


def _load_run(args):
    from . import process
    return process.run_from_json(_read_text(args.infile), args.limits)


def cmd_process_gaps(args):
    from . import process
    rep = process.gap_report(_load_run(args), args.epsilon)
    return {
        "epsilon": args.epsilon,
        "max_gap": rep.max_gap,
        "fitted_c_eps": rep.fitted_c_eps,
        "gap_count": len(rep.lengths),
        "columns": ["t", "gap"],
        "rows": (rep.starts, rep.lengths),  # columns, streamed by _emit
    }


def cmd_process_verify(args):
    from . import process
    witness = process.verify_free(_load_run(args))
    return {"free": witness is None,
            "witness": _gp_payload(witness) if witness else None}


def cmd_process_survival(args):
    from . import process
    empties = process.survival_probability(
        process.ProcessKind(args.kind), args.x, args.h, args.trials, args.seed, args.limits
    )
    return {"kind": args.kind, "x": args.x, "h": args.h, "trials": args.trials,
            "empties": empties, "estimate": empties / args.trials}


# ---------------------------------------------------------------------------
# syndetic subcommands

def cmd_syndetic_search(args):
    from . import syndetic
    inst = syndetic.build_instance(args.n, args.pairing)
    out = syndetic.search(inst, limits=args.limits)
    payload = {
        "N": args.n,
        "pairing": args.pairing,
        "verdict": out.verdict,
        "nodes": out.stats.nodes,
        "prunings": out.stats.prunings,
    }
    if out.selection is not None:
        payload["counterexample"] = list(out.selection)
    if out.verdict == syndetic.BUDGET_EXHAUSTED:
        raise ResourceLimit(json.dumps(payload, sort_keys=True))
    return payload


def cmd_syndetic_export(args):
    from . import syndetic
    inst = syndetic.build_instance(args.n, args.pairing)
    sys.stdout.write(syndetic.export_dimacs(inst))
    return None  # already printed


# ---------------------------------------------------------------------------
# bounds subcommand

def cmd_bounds_envelope(args):
    from . import bounds
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    bounds._check_x(args.x0)  # both ends first: an end <= 0 breaks the ratio
    bounds._check_x(args.x1)
    # geometric grid from x0 to x1 inclusive
    ratio = (args.x1 / args.x0) ** (1.0 / max(args.points - 1, 1))
    # the envelope grows with x >= 16, so if any row overflows an end row does:
    # evaluate both ends before _emit writes the first row
    for p in {0, args.points - 1}:
        bounds.gap_envelope(args.x0 * ratio**p, args.epsilon, args.c_eps)
    xs, at = tee(args.x0 * ratio**p for p in range(args.points))
    values = (bounds.gap_envelope(x, args.epsilon, args.c_eps) for x in at)
    return {
        "C_2_3": bounds.C_2_3,
        "epsilon": args.epsilon,
        "c_eps": args.c_eps,
        "columns": ["x", "value"],
        "rows": (xs, values),  # columns, streamed by _emit
    }


# ---------------------------------------------------------------------------
# parser: one table of (group, leaf, handler, options)

def _opt(flag: str, type=None, **kw) -> tuple[str, dict]:
    """A leaf option as add_argument's (flag, keywords); required unless it has a default."""
    return flag, {"type": type, "required": "default" not in kw, **kw}


_FORMAT = _opt("--format", choices=["json", "csv"], default="json")
_CONFIG = _opt("--config", default=None, help="key=value budget file")
_WORKERS = _opt("--workers", int, default=None, help="no effect: the command runs serially")
_KIND = _opt("--kind", choices=["6gp", "5gp", "3gp-int"])
_PAIRING = _opt("--pairing", choices=["disjoint", "overlapping"], default="disjoint")
_IN = _opt("--in", dest="infile")
_WINDOW = [_opt("--start", int), _opt("--len", int)]

_GROUPS = {
    "gp": "geometric-progression core",
    "divisor": "divisor-function sieves and sums",
    "process": "randomized GP-removal processes",
    "syndetic": "exhaustive pair-selection search",
    "bounds": "envelope evaluation",
}

# Options in --help order.  --config is on the commands that read a budget, and
# --format on those whose payload has `rows`.  A handler imports the gpfree modules it runs on first
# use, so a command loads its own group's module (gp: gpcore; divisor: divisor;
# process: process, bounds and gpcore; syndetic: syndetic and gpcore; bounds:
# bounds) and none of the others.
_COMMANDS = [
    ("gp", "enumerate", cmd_gp_enumerate,
     [_opt("--k", int), _opt("--position", int), _opt("--bound", int),
      _opt("--max-items", int, default=10000)]),
    ("gp", "decompose", cmd_gp_decompose, [_opt("--terms", help="comma-separated integers")]),
    ("gp", "contains", cmd_gp_contains,
     [_opt("--k", int), _opt("--mode", choices=["rational", "int"], default="rational"),
      _opt("--input"), _CONFIG]),
    ("divisor", "table", cmd_divisor_table,
     [_opt("--k", int, default=None), _opt("--i", int, default=None),
      _opt("--j", int, default=None), *_WINDOW, _FORMAT, _CONFIG]),
    ("divisor", "sum", cmd_divisor_sum,
     [_opt("--i", int), _opt("--j", int), *_WINDOW, _opt("--D", float), _CONFIG]),
    ("divisor", "mertens", cmd_divisor_mertens, [_opt("--x", int), _CONFIG]),
    ("process", "run", cmd_process_run,
     [_KIND, _opt("--n", int), _opt("--seed", int), _opt("--out", default=None),
      _CONFIG, _WORKERS]),
    ("process", "gaps", cmd_process_gaps, [_IN, _opt("--epsilon", float), _FORMAT, _CONFIG]),
    ("process", "verify", cmd_process_verify, [_IN, _CONFIG]),
    ("process", "survival", cmd_process_survival,
     [_KIND, _opt("--x", int), _opt("--h", int), _opt("--trials", int), _opt("--seed", int),
      _CONFIG]),
    ("syndetic", "search", cmd_syndetic_search,
     [_opt("--n", int), _PAIRING, _CONFIG, _WORKERS]),
    ("syndetic", "export", cmd_syndetic_export, [_opt("--n", int), _PAIRING]),
    ("bounds", "envelope", cmd_bounds_envelope,
     [_opt("--epsilon", float), _opt("--c-eps", float, dest="c_eps"),
      _opt("--from", float, dest="x0"), _opt("--to", float, dest="x1"), _opt("--points", int),
      _FORMAT]),
]


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The gpfree parser, with leaf parsers for the group that `argv` names only.

    argparse takes the first group name in argv as the group, as no top-level
    option takes a value.  The other groups get no leaves: the top-level and
    group --help texts, and their usage errors, do not show them.
    """
    p = argparse.ArgumentParser(prog="gpfree", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    leaves = {name: sub.add_parser(name, help=text).add_subparsers(dest="sub", required=True)
              for name, text in _GROUPS.items()}
    group = next((a for a in argv if a in _GROUPS), None)
    for name, leaf, func, options in _COMMANDS:
        if name == group:
            sp = leaves[name].add_parser(leaf)
            for flag, kw in options:
                sp.add_argument(flag, **kw)
            sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    args._argv = argv
    t0 = time.perf_counter()
    try:
        if getattr(args, "workers", 1) is None:
            _check_workers_env()
        if "config" in args:
            args.limits = _load_limits(args.config)
        payload = args.func(args)
        if payload is not None:
            _emit(args, payload, seed=getattr(args, "seed", None),
                  elapsed_ms=(time.perf_counter() - t0) * 1000.0)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GPFreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the exit-time
        # flush of what is still buffered cannot raise again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):  # stdout is not a file descriptor
            pass
        print("error: output closed early (broken pipe)", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
