"""Command-line entry point: evaluate, prompts, and embed subcommands."""

import argparse
import json
import os
import sys
from pathlib import Path

from .embeddings import embed, load_backend
from .errors import ClonevalError, EvaluationFailed, ParseError
from .pipeline import (
    REPORT_NAMES,
    EvalConfig,
    aggregate,
    discover_pairs,
    evaluate_corpus,
    list_wavs,
    load_alias_table,
    load_mono_16k,
    make_prompt_assignments,
    write_reports,
    write_staged,
)

EXIT_OK = 0
EXIT_RUN_FAILURE = 1


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says; else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloneval",
        description="Voice-cloning evaluation: speaker-embedding and acoustic-feature "
        "similarity between reference and generated audio.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="score reference/generated pairs and write reports")
    ev.add_argument("--reference-dir", required=True, help="directory of reference WAVs")
    ev.add_argument("--generated-dir", required=True, help="directory of generated WAVs")
    ev.add_argument("--output-dir", required=True, help="where details.csv and summary.json go")
    mode = ev.add_mutually_exclusive_group(required=True)
    mode.add_argument("--embedding-model", help="ONNX speaker-embedding model path")
    mode.add_argument("--embeddings-ref", help="precomputed embedding JSON for the reference side")
    ev.add_argument("--embeddings-gen", help="precomputed embedding JSON for the generated side")
    mode.add_argument("--no-embedding", action="store_true", help="skip the embedding metric")
    ev.add_argument("--emotions", default="auto", metavar="auto|off|TABLE",
                    help="auto: parse labels from filenames with the built-in table; "
                    "off: force unknown; TABLE: parse them with this JSON {token: emotion} "
                    "file (./off for a file named off)")
    ev.add_argument("--workers", type=int, default=_usable_cpus(),
                    help="worker processes (default: the CPUs this process may run on); "
                    "results do not depend on this")
    ev.add_argument("--dump-features", help="also write every feature summary to this JSONL file")
    ev.set_defaults(parser=ev)  # each command reports its usage errors with its own usage

    pr = sub.add_parser("prompts", help="draw a text prompt for each sample from the others")
    pr.add_argument("--manifest", required=True, help="TSV: sample_id<TAB>text")
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--out", required=True, help="output TSV: sample_id<TAB>source<TAB>text")
    pr.set_defaults(parser=pr)

    em = sub.add_parser("embed", help="precompute embeddings for a directory of WAVs")
    em.add_argument("--input-dir", required=True)
    em.add_argument("--model", required=True, help="ONNX speaker-embedding model path")
    em.add_argument("--out", required=True, help="output JSON manifest path")
    em.set_defaults(parser=em)
    return parser


def _resolved(files) -> dict:
    """``{resolved path: description}`` of each ``(path, description)``; the first wins."""
    taken = {}
    for path, what in files:
        taken.setdefault(Path(path).resolve(), what)
    return taken


def _check_out_file(parser, flag: str, value: str, taken: dict, out_dir=None) -> None:
    """Exit with a usage error unless ``value`` names a file in an existing
    directory, or in ``out_dir``, which the command creates, and none of
    ``taken``: the ``_resolved`` map of the other files the command reads or
    writes, such as ``{manifest: "the --manifest file"}``."""
    # Path() drops a trailing separator, which names a directory
    path = Path(value)
    in_out_dir = out_dir is not None and path.parent.resolve() == Path(out_dir).resolve()
    if value.endswith(("/", os.sep)) or path.is_dir() or not (path.parent.is_dir() or in_out_dir):
        parser.error(f"{flag} must name a file in an existing directory")
    what = taken.get(path.resolve())
    if what is not None:
        parser.error(f"{flag} must not name {what}")


def _check_out_dir(parser, value: str) -> None:
    """Exit with a usage error unless ``value`` is a directory or can be made one."""
    path = Path(value).absolute()
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        parser.error(f"--output-dir cannot be a directory: {existing} is a file")


def _cmd_evaluate(args, parser) -> int:
    if (args.embeddings_ref is None) != (args.embeddings_gen is None):
        parser.error("--embeddings-ref and --embeddings-gen must be given together")
    for name in ("reference_dir", "generated_dir"):
        if not Path(getattr(args, name)).is_dir():
            parser.error(f"--{name.replace('_', '-')} is not a directory")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    _check_out_dir(parser, args.output_dir)
    pairs, unmatched_ref, unmatched_gen = discover_pairs(args.reference_dir, args.generated_dir)
    table = None if args.emotions in ("auto", "off") else args.emotions
    taken = [(path, f"the {flag} file") for flag, path in (
        ("--embedding-model", args.embedding_model), ("--embeddings-ref", args.embeddings_ref),
        ("--embeddings-gen", args.embeddings_gen), ("--emotions", table)) if path is not None]
    for side, flag, directory, unmatched in (
            (1, "--reference-dir", args.reference_dir, unmatched_ref),
            (2, "--generated-dir", args.generated_dir, unmatched_gen)):
        taken += [(pair[side], f"a WAV in {flag}") for pair in pairs]
        taken += [(Path(directory) / name, f"a WAV in {flag}") for name in unmatched]
    taken = _resolved(taken)
    for name in REPORT_NAMES:
        report = os.path.join(args.output_dir, name)
        _check_out_file(parser, f"{name} in --output-dir", report, taken, args.output_dir)
        taken[Path(report).resolve()] = "a report file"
    if args.dump_features:
        _check_out_file(parser, "--dump-features", args.dump_features, taken, args.output_dir)

    aliases = {} if args.emotions == "off" else None
    if table is not None:
        try:
            aliases = load_alias_table(table)
        except ClonevalError as exc:
            parser.error(str(exc))

    backends = None
    if args.embedding_model:
        backend = load_backend(model_path=args.embedding_model)
        backends = (backend, backend)
    elif args.embeddings_ref:
        backends = tuple(load_backend(precomputed_path=path)
                         for path in (args.embeddings_ref, args.embeddings_gen))

    for side, names in (("reference", unmatched_ref), ("generated", unmatched_gen)):
        for name in names:
            print(f"warning: unmatched {side} file {name}", file=sys.stderr)

    dump_lines = []
    dump = None
    extra = {}
    if args.dump_features:
        def dump(pair_id, side, feature_id, vector):
            dump_lines.append(json.dumps(
                {"pair_id": pair_id, "side": side, "feature_id": feature_id,
                 "vector": [float(v) for v in vector]},
                sort_keys=True,
            ))

        extra[args.dump_features] = lambda fh: fh.write("\n".join(sorted(dump_lines)) + "\n")

    config = EvalConfig(backends=backends, aliases=aliases, workers=args.workers)
    records, errors = evaluate_corpus(pairs, config, dump=dump)
    for pair_id in sorted(errors):
        print(f"warning: pair {pair_id} failed: {errors[pair_id]}", file=sys.stderr)
    if not records:
        raise EvaluationFailed(f"all {len(pairs)} pairs failed; first error: "
                               f"{errors[min(errors)]}")

    summary = aggregate(records, config.fingerprint())
    details_path, summary_path = write_reports(
        records, summary, args.output_dir, errors, extra=extra)

    print(f"pairs evaluated: {len(records)} (failed: {len(errors)})")
    for metric, value in summary["overall"].items():
        print(f"{metric} {value:.6f}")
    print(f"reports: {details_path} {summary_path}")
    return EXIT_OK


def _cmd_prompts(args, parser) -> int:
    _check_out_file(parser, "--out", args.out,
                    _resolved([(args.manifest, "the --manifest file")]))
    try:
        with open(args.manifest, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read manifest {args.manifest}: {exc}") from exc
    manifest = []
    for line_no, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{args.manifest}:{line_no}: expected sample_id<TAB>text")
        manifest.append((parts[0], parts[1]))
    assignments = make_prompt_assignments(manifest, args.seed)
    write_staged({args.out: lambda fh: fh.writelines(
        f"{a.sample_id}\t{a.source_sample_id}\t{a.assigned_text}\n" for a in assignments)})
    print(f"wrote {len(assignments)} assignments to {args.out}")
    return EXIT_OK


def _cmd_embed(args, parser) -> int:
    if not Path(args.input_dir).is_dir():
        parser.error("--input-dir is not a directory")
    wavs = list_wavs(args.input_dir)
    _check_out_file(parser, "--out", args.out, _resolved(
        [(args.model, "the --model file")]
        + [(path, "a WAV in --input-dir") for path in wavs.values()]))
    if not wavs:
        raise ClonevalError(f"no audio files in {args.input_dir}")
    backend = load_backend(model_path=args.model)
    manifest = {}
    for stem, path in wavs.items():
        try:
            vector = embed(backend, load_mono_16k(path), key=stem)
        except ClonevalError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        manifest[stem] = [float(v) for v in vector]
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_staged({args.out: lambda fh: fh.write(text)})
    print(f"wrote {len(manifest)} embeddings to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            return _cmd_evaluate(args, args.parser)
        if args.command == "prompts":
            return _cmd_prompts(args, args.parser)
        return _cmd_embed(args, args.parser)
    except (ClonevalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
