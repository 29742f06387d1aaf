"""Run one causalprobe CLI command as `python -m causalprobe` does, with the
benchmark's span tracing or host speed sampling on.

    python3 bench/cli_child.py REPORT_JSON trace|time <causalprobe CLI arguments...>

`trace` times `import causalprobe.cli`, installs the span wrappers of
spans.py, runs the command and writes the import time and the spans to
REPORT_JSON. `time` samples the host speed (speed.py) from before
`import causalprobe.cli` until the command ends and writes the samples to
REPORT_JSON; the caller takes their time out of the process's wall time.
Exits with the command's exit code.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run(argv) -> int:
    import causalprobe.cli

    return causalprobe.cli.main(argv)


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "time":
        import speed

        sampler = speed.Sampler()
        sampler.enabled = True
        code, _wall, samples = sampler.timed(run, argv)
        report = {"samples": samples}
    elif mode == "trace":
        start = perf_counter()
        import causalprobe.cli

        import_s = perf_counter() - start
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        code = causalprobe.cli.main(argv)
        report = {"import_s": import_s, "spans": tracer.spans}
    else:
        print(f"error: mode must be trace or time, not {mode!r}", file=sys.stderr)
        return 2
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
