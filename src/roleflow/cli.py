"""Command line driver: validate, decompose, recompose-check, run, adapt.

Exit codes: 0 success, 1 validation failure, 2 runtime or coherence error,
3 format error (unparseable or unreadable input). Output files are written
atomically (temp file, then rename), so an aborted run never leaves a
partial artifact behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .adaptation import diff_models, evolve
from .decomposition import (
    MultiAgentModel,
    decompose,
    recompose,
    check_equivalence,
    synthesize,
    validate_model,
)
from .errors import (
    CoherenceError,
    FormatError,
    IncoherentOrganization,
    ModelSyntaxError,
    PartialAssignment,
    ResolutionError,
    RoleflowError,
    UnknownOp,
)
from .modelio import (
    channel_line,
    parse_model,
    parse_scenario,
    read_context,
    render_report,
    render_trace,
    serialize_model,
    write_context,
)
from .organization import Organization, validate_organization
from .runtime import adaptive_loop, resume_run, run_concurrent

_FORMAT_ERRORS = (ModelSyntaxError, ResolutionError, UnknownOp, FormatError, OSError)


def _atomic_write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_model(path: str):
    return parse_model(Path(path).read_text(encoding="utf-8"))


def _load_scenario(path: str):
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _model_for_run(model_path: str, scenario_doc) -> MultiAgentModel:
    doc = _load_model(model_path)
    if isinstance(doc.model, Organization):
        if not scenario_doc.assignment:
            raise PartialAssignment("the scenario declares no role assignment")
        return decompose(doc.model, scenario_doc.assignment)
    return doc.model


def _cmd_validate(args) -> int:
    doc = _load_model(args.model)
    if isinstance(doc.model, Organization):
        report = validate_organization(doc.model)
    else:
        report = validate_model(doc.model)
    if report.empty:
        print("ok")
        return 0
    print(report.render())
    return 1


def _cmd_decompose(args) -> int:
    doc = _load_model(args.model)
    if not isinstance(doc.model, Organization):
        print("decompose needs an organization model", file=sys.stderr)
        return 2
    sdoc = _load_scenario(args.scenario)
    mam = decompose(doc.model, sdoc.assignment)
    print(f"agents {len(mam.agents)}")
    print(f"channels {len(mam.channels)}")
    if args.emit_agents:
        out_dir = Path(args.emit_agents)
        for aid in mam.agent_ids():
            agent = mam.agents[aid]
            single = MultiAgentModel(
                mam.organization_ref,
                {r: a for r, a in mam.assignment.items() if a == aid},
                {aid: agent},
                {
                    cid: ch
                    for cid, ch in mam.channels.items()
                    if aid in (ch.producer, ch.consumer)
                },
            )
            _atomic_write(out_dir / f"{aid}.mas", serialize_model(single).encode("utf-8"))
        manifest = [channel_line(mam.channels[cid]) for cid in sorted(mam.channels)]
        _atomic_write(out_dir / "channels.manifest", ("\n".join(manifest) + "\n").encode("utf-8"))
        print(f"wrote {len(mam.agents)} agent files to {out_dir}")
    return 0


def _cmd_recompose_check(args) -> int:
    doc = _load_model(args.model)
    if not isinstance(doc.model, Organization):
        print("recompose-check needs an organization model", file=sys.stderr)
        return 2
    sdoc = _load_scenario(args.scenario)
    mam = decompose(doc.model, sdoc.assignment)
    ok = check_equivalence(doc.model.global_task, recompose(mam))
    print("equivalent" if ok else "divergent")
    return 0 if ok else 1


def _cmd_run(args) -> int:
    sdoc = _load_scenario(args.scenario)
    if args.resume_from:
        sidecar = Path(args.resume_from + ".model")
        if sidecar.exists():
            mam = parse_model(sidecar.read_text(encoding="utf-8")).model
        else:
            mam = _model_for_run(args.model, sdoc)
        context = read_context(Path(args.resume_from).read_bytes())
        system = resume_run(context, mam, sdoc.scenario)
    else:
        system = synthesize(_model_for_run(args.model, sdoc))

    sink = None
    if args.checkpoint_at is not None:
        if args.concurrent:
            print("--checkpoint-at is only available in deterministic mode", file=sys.stderr)
            return 2
        if not args.context:
            print("--checkpoint-at needs --context FILE", file=sys.stderr)
            return 2
        ctx_path = Path(args.context)

        def sink(context, model):
            _atomic_write(ctx_path, write_context(context))
            _atomic_write(Path(str(ctx_path) + ".model"), serialize_model(model).encode("utf-8"))

    try:
        if args.concurrent:
            report = run_concurrent(system, sdoc.scenario, args.seed)
        else:
            report = adaptive_loop(
                system, sdoc.scenario, checkpoint_at=args.checkpoint_at, checkpoint_sink=sink
            )
    except CoherenceError as exc:
        if args.trace and exc.partial_trace is not None:
            _atomic_write(Path(args.trace), render_trace(exc.partial_trace).encode("utf-8"))
        raise

    if args.trace:
        _atomic_write(Path(args.trace), render_trace(report.trace).encode("utf-8"))
    sys.stdout.write(render_report(report))
    return 0


def _cmd_adapt(args) -> int:
    doc = _load_model(args.model)
    rdoc = _load_scenario(args.request)
    if isinstance(doc.model, Organization):
        mam = decompose(doc.model, rdoc.assignment)
    else:
        mam = doc.model
    if not rdoc.scenario.triggers:
        print("request file contains no adapt blocks", file=sys.stderr)
        return 2
    for trigger in rdoc.scenario.triggers:
        new_model, impact = evolve(mam, trigger.request)
        for line in diff_models(mam, new_model):
            print(line)
        for aid in sorted(impact.per_agent):
            print(f"impact {aid} {impact.per_agent[aid]}")
        mam = new_model
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roleflow",
        description="Validate, decompose, run, and adapt role-based multi-agent models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("decompose", help="derive per-agent tasks from an organization")
    p.add_argument("model")
    p.add_argument("scenario")
    p.add_argument("--emit-agents", metavar="DIR")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("recompose-check", help="verify decompose/recompose structural identity")
    p.add_argument("model")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_recompose_check)

    p = sub.add_parser("run", help="execute a model under a scenario")
    p.add_argument("model")
    p.add_argument("scenario")
    p.add_argument("--trace", metavar="FILE")
    p.add_argument("--concurrent", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-at", type=int, default=None, metavar="K")
    p.add_argument("--context", metavar="FILE")
    p.add_argument("--resume-from", metavar="FILE")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("adapt", help="apply adaptation requests offline and print the diff")
    p.add_argument("model")
    p.add_argument("request")
    p.set_defaults(fn=_cmd_adapt)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IncoherentOrganization, PartialAssignment) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        if getattr(exc, "report", None):
            print(exc.report.render(), file=sys.stderr)
        return 1
    except RoleflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report is not None and not report.empty:
            print(report.render(), file=sys.stderr)
        return 2


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
