"""clusterufd benchmark: run one workload through the CLI and report metrics.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` every command of the workload runs in a fresh
``python3 -m clusterufd.cli`` process, one at a time (a single client in a
closed loop), each between two runs of the reference job
(``reference.py``), and the end-to-end metrics are reported relative to
it.  With ``--trace 1`` the same commands run in this process through
``cli.main``, alternately untraced and with span-recording wrappers around
every layer, and the per-layer metrics are reported.  Every command's output is checked
independently (``checks.py``); the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Optional

import checks
import tracing
from workloads import VERDICT_EXIT, WORKLOADS

COMMAND_TIMEOUT_S = 60
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
REFERENCE_S = 0.8  # end-to-end times are seconds on a machine where the reference takes this
SETUP_REPEATS = 2
IMPORT_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s",
                    "peak_rss_mb": "MB"}


class _Timeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program eats it."""


def _on_alarm(signum, frame):
    raise _Timeout()


def judge(cmd, code, stdout: str, stderr: str) -> list[str]:
    """Problems with one command's outcome; empty when it is correct."""
    if checks.TRACEBACK in stderr:
        return ["printed a Python traceback"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, output is not one JSON report: {stderr.strip()[:200]}"]
    want = cmd.exit_code
    if want is None:
        want = VERDICT_EXIT.get(report.get("verdict"))
    if code != want:
        return [f"exit {code}, expected {want} for verdict {report.get('verdict')!r}"]
    if cmd.check is None:
        return []
    try:
        return cmd.check(report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


class Runner:
    """Runs commands in fresh processes and keeps the failure tally."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.last_reference: Optional[float] = None

    def reference(self) -> float:
        """Wall time of the reference job in a fresh process."""
        start = time.perf_counter()
        subprocess.run([sys.executable, REFERENCE], check=True, stdout=subprocess.DEVNULL,
                       env=self.env, cwd=self.root, timeout=COMMAND_TIMEOUT_S)
        self.last_reference = time.perf_counter() - start
        return self.last_reference

    def timed(self, argv):
        """``spawn`` between two runs of the reference job; adds the command's
        wall time relative to the mean of the two, in reference seconds."""
        before = self.last_reference or self.reference()
        code, wall, max_rss, stdout, stderr = self.spawn(argv)
        scaled = wall / ((before + self.reference()) / 2) * REFERENCE_S
        return code, wall, scaled, max_rss, stdout, stderr

    def spawn(self, argv):
        """(exit code or None on timeout, wall s, max RSS MB, stdout, stderr)."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "clusterufd.cli", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=self.root)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                code = os.waitstatus_to_exitcode(status)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                code = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return code, wall, usage.ru_maxrss / 1024, stdout, stderr

    def record(self, cmd, code, stdout: str, stderr: str):
        """Check one outcome, including byte-identical output across passes."""
        self.attempted += 1
        if code is None:
            problems = [f"timed out after {COMMAND_TIMEOUT_S} s"]
        else:
            problems = judge(cmd, code, stdout, stderr)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(cmd.key, digest) != digest:
            problems.append("output differs from an earlier pass")
        if problems:
            self.failures.append(f"{cmd.key}: {'; '.join(problems)}")


def time_help(runner: Runner) -> float:
    """A fresh ``clusterufd --help``, in reference seconds."""
    code, _, scaled, _, stdout, stderr = runner.timed(["--help"])
    runner.attempted += 1
    if code != 0 or "usage: clusterufd" not in stdout:
        runner.failures.append(f"--help: exit {code} {stderr.strip()[:200]}")
    return scaled


def end_to_end(runner: Runner, cmds, seconds: float) -> dict[str, float]:
    """Passes over the commands while time remains.

    The speed of a shared machine swings by up to 2x over tens of seconds,
    and CPU time follows wall time, so the swings come from the processor.
    Every timed command therefore runs between two runs of the reference
    job, and its time is reported as a multiple of their mean, scaled by
    ``REFERENCE_S``.  Set-up is sampled at the start and after every pass.
    """
    start = time.perf_counter()
    time_help(runner)  # warm-up: fills caches
    setup = [time_help(runner) for _ in range(SETUP_REPEATS)]
    raw: dict[str, list[float]] = {cmd.key: [] for cmd in cmds}
    scaled: list[float] = []
    rss, passes = [], 0
    first_pass = time.perf_counter()
    while True:
        peak = 0.0
        for cmd in cmds:
            code, wall, cmd_scaled, max_rss, stdout, stderr = runner.timed(cmd.argv)
            runner.record(cmd, code, stdout, stderr)
            raw[cmd.key].append(wall)
            scaled.append(cmd_scaled)
            peak = max(peak, max_rss)
        rss.append(peak)
        passes += 1
        setup.append(time_help(runner))
        now = time.perf_counter()
        if now - start + (now - first_pass) / passes / 2 > seconds:
            break  # another pass would end more than half a pass late
    for key, samples in raw.items():
        print(f"# {statistics.median(samples):8.3f} s raw median  {key}")
    print(f"# {passes} passes of {len(cmds)} commands, each timed against the reference "
          f"job run just before and after it; wall_s is the mean pass, cmd_p50_s the median of "
          f"{len(scaled)} commands, setup_s the median of {len(setup)} --help runs, "
          f"peak_rss_mb the median over passes of each pass's largest")
    return {"setup_s": statistics.median(setup), "wall_s": sum(scaled) / passes,
            "cmd_p50_s": statistics.median(scaled), "peak_rss_mb": statistics.median(rss)}


# -- the traced, in-process run ------------------------------------------------

def measure_import(runner: Runner) -> tuple[float, int]:
    """Median time to import ``clusterufd.cli`` in a fresh interpreter."""
    probe = ("import sys, time\nt = time.perf_counter()\nimport clusterufd.cli\n"
             "print(time.perf_counter() - t, int('sympy' in sys.modules))")
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", probe], env=runner.env,
                              cwd=runner.root, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        runner.attempted += 1
        if proc.returncode != 0:
            runner.failures.append(f"import probe: {proc.stderr.strip()[:200]}")
            return 0.0, 0
        seconds, sympy_loaded = proc.stdout.split()
        samples.append(float(seconds))
    return statistics.median(samples), int(sympy_loaded)


def run_inprocess(runner: Runner, cli, cmds, tracer=None) -> tuple[float, int]:
    """One pass through ``cli.main``; returns (seconds in commands, stdout bytes)."""
    elapsed, printed = 0.0, 0
    for cmd_id, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.cmd_id = cmd_id
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(cmd.argv))
            except _Timeout:
                code = None
            except Exception:
                code = -1
                err.write(traceback.format_exc())
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        elapsed += time.perf_counter() - start
        stdout = out.getvalue()
        printed += len(stdout.encode())
        runner.record(cmd, code, stdout, err.getvalue())
    return elapsed, printed


def traced(runner: Runner, cmds, seconds: float, trace_path: str) -> dict[str, float]:
    import_s, sympy_at_import = measure_import(runner)
    sys.path.insert(0, os.path.join(runner.root, "src"))
    from clusterufd import cli
    samples: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        plain_s, _ = run_inprocess(runner, cli, cmds)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced_s, printed = run_inprocess(runner, cli, cmds, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, traced_s)
        metrics.update({"cli.output_bytes": printed, "inprocess_s": plain_s,
                        "trace.overhead_ratio": traced_s / plain_s})
        samples.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    tracer.write(trace_path)
    print(f"# {len(samples)} untraced + traced in-process passes; (low) medians reported; "
          f"{len(tracer.start)} spans written to {os.path.relpath(trace_path, runner.root)}")
    out = {"cli.import_s": import_s, "cli.sympy_at_import": sympy_at_import}
    for name in samples[0]:
        out[name] = statistics.median_low(s[name] for s in samples)
    out["checks.error_rate"] = len(runner.failures) / runner.attempted
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clusterufd", "cli.py")):
        print("perfbench: run from the root of a clusterufd checkout "
              "(src/clusterufd/cli.py not found)", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build", "perfbench")
    workdir = os.path.join(build, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(root, workdir)
        cmds = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"),
                                        workdir)
        if args.trace:
            metrics = traced(runner, cmds, args.seconds,
                             os.path.join(build, f"spans-{args.workload}.tsv"))
            units = {name: tracing.unit_of(name) for name in metrics}
        else:
            metrics = end_to_end(runner, cmds, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in runner.failures:
        print(f"FAIL {failure}")
    error_rate = len(runner.failures) / runner.attempted
    print(f"# error_rate {error_rate:.4f} ({len(runner.failures)} of "
          f"{runner.attempted} commands failed)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
