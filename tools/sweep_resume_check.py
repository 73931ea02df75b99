#!/usr/bin/env python
"""CI guard: interrupted sweeps resume to a byte-identical store.

The resumability contract of :mod:`repro.sweep` is that the compacted
result store is a pure function of the evaluated cell set — independent
of the worker count, the chunk grouping, and any interrupt/resume
history.  This check models the full failure story on a small grid:

1. run the sweep uninterrupted at ``jobs=1`` (the reference store);
2. run the same sweep into a fresh store with a cell budget that cuts
   it off mid-grid (the "killed" run), then resume it at ``jobs=2``;
3. assert the resumed store's compacted bytes equal the reference's;
4. re-run the completed sweep and assert it evaluates zero cells
   (pure skip — the incrementality half of the contract).

Any mismatch means cell identity, store compaction or the resume path
leaked nondeterminism and fails the build.

``--kill`` models a hard crash instead of a budget cut: for each of
three seeds it starts ``repro sweep run --jobs 2`` in its own process
group, SIGKILLs the whole group (CLI and pool workers alike, so no
orphan survives) after a seeded random delay, resumes the sweep with
the CLI, and asserts the same two properties against a ``jobs=1``
reference — whatever the kill left behind, torn log line included.

Usage::

    PYTHONPATH=src python tools/sweep_resume_check.py [--kill]

Exit status 0 when the store is byte-identical and the re-run is a pure
skip, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)


def _spec():
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="resume-check",
        protocols=("can", "majorcan"),
        m_values=(5,),
        bers=(1e-5, 1e-4),
        bit_rates=(500_000.0,),
        bus_lengths_m=(30.0,),
        payloads=(1,),
        node_counts=(3,),
        window=2,
        max_flips=2,
    )


def _kill_spec():
    """A grid whose engine-backend run spans several chunks and seconds."""
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="resume-check-kill",
        protocols=("can", "minorcan", "majorcan"),
        m_values=(5,),
        bers=(1e-6, 1e-5, 1e-4, 1e-3),
        bit_rates=(500_000.0,),
        bus_lengths_m=(30.0,),
        payloads=(1, 2),
        node_counts=(3, 4),
        window=2,
        max_flips=2,
    )


#: One kill per seed; each seeds the draw of its kill delay.
KILL_SEEDS = (1, 2, 3)
#: The engine backend keeps the grid busy long enough (several chunks,
#: a few seconds) for the kills to land mid-run.
KILL_BACKEND = "engine"


def _sweep_cli(spec_path: str, store: str):
    """The ``repro sweep run`` command line at ``--jobs 2``."""
    return [
        sys.executable, "-m", "repro.cli", "sweep", "run", spec_path,
        "--store", store, "--jobs", "2", "--backend", KILL_BACKEND,
    ]


def _cli_env():
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _group_alive(pgid: int) -> bool:
    """True while a live (non-zombie) process remains in group ``pgid``."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    if not os.path.isdir("/proc"):
        return True
    for entry in os.listdir("/proc"):
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _kill_mode(workdir: str) -> int:
    from repro.sweep import ResultStore, run_sweep

    spec = _kill_spec()
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as handle:
        handle.write(spec.to_json())
    reference = ResultStore(os.path.join(workdir, "reference"))
    full = run_sweep(spec, reference, jobs=1, backend=KILL_BACKEND)
    print("sweep-kill: reference  %s" % full.summary())
    env = _cli_env()
    start = time.monotonic()
    subprocess.run(
        _sweep_cli(spec_path, os.path.join(workdir, "timing")),
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    duration = time.monotonic() - start
    for seed in KILL_SEEDS:
        store = ResultStore(os.path.join(workdir, "killed-%d" % seed))
        delay = random.Random(seed).uniform(0.65, 0.95) * duration
        proc = subprocess.Popen(
            _sweep_cli(spec_path, store.root),
            env=env, start_new_session=True, stdout=subprocess.DEVNULL,
        )
        time.sleep(delay)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10.0
        while _group_alive(proc.pid):
            if time.monotonic() > deadline:
                print("sweep-kill: FAIL (seed %d left live processes)" % seed)
                return 1
            time.sleep(0.05)
        survived = len(store.keys())
        resume = subprocess.run(
            _sweep_cli(spec_path, store.root),
            env=env, capture_output=True, text=True,
        )
        if resume.returncode != 0:
            print("sweep-kill: FAIL (seed %d resume exited %d)\n%s"
                  % (seed, resume.returncode, resume.stderr))
            return 1
        identical = store.compacted_bytes() == reference.compacted_bytes()
        rerun = run_sweep(spec, store, jobs=1, backend=KILL_BACKEND)
        print(
            "sweep-kill: seed %d killed after %.2fs with %d/%d cells stored; "
            "resumed store %s, re-run evaluated %d"
            % (seed, delay, survived, spec.cell_count(),
               "identical" if identical else "DIVERGED", rerun.evaluated)
        )
        if not identical or rerun.evaluated != 0:
            return 1
    print(
        "sweep-kill: SIGKILLed runs resume byte-identically and "
        "completed sweeps are pure skips"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kill",
        action="store_true",
        help="SIGKILL the sweep CLI mid-run (3 seeds) instead of a budget cut",
    )
    args = parser.parse_args(argv)
    if args.kill:
        workdir = tempfile.mkdtemp(prefix="sweep-kill-check-")
        try:
            return _kill_mode(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return _budget_mode()


def _budget_mode() -> int:
    from repro.sweep import ResultStore, run_sweep

    spec = _spec()
    workdir = tempfile.mkdtemp(prefix="sweep-resume-check-")
    try:
        reference = ResultStore(os.path.join(workdir, "reference"))
        full = run_sweep(spec, reference, jobs=1)
        print("sweep-resume: reference  %s" % full.summary())
        if not full.complete or full.evaluated != spec.cell_count():
            print("sweep-resume: FAIL (reference run did not cover the grid)")
            return 1

        # Kill mid-grid via the cell budget, then resume at jobs=2.
        resumed = ResultStore(os.path.join(workdir, "resumed"))
        budget = max(1, spec.cell_count() // 2)
        killed = run_sweep(spec, resumed, jobs=1, cell_budget=budget)
        print("sweep-resume: interrupted %s" % killed.summary())
        if killed.complete:
            print("sweep-resume: FAIL (budget did not interrupt the run)")
            return 1
        resume = run_sweep(spec, resumed, jobs=2)
        print("sweep-resume: resumed    %s" % resume.summary())

        identical = resumed.compacted_bytes() == reference.compacted_bytes()
        print(
            "sweep-resume: compacted store %s (reference digest %s)"
            % ("identical" if identical else "DIVERGED", full.digest[:16])
        )
        if not identical:
            return 1

        rerun = run_sweep(spec, reference, jobs=1)
        print("sweep-resume: re-run      %s" % rerun.summary())
        if rerun.evaluated != 0:
            print(
                "sweep-resume: FAIL (completed sweep re-evaluated %d cells)"
                % rerun.evaluated
            )
            return 1
        if rerun.digest != full.digest:
            print("sweep-resume: FAIL (re-run changed the store digest)")
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        "sweep-resume: interrupted runs resume byte-identically and "
        "completed sweeps are pure skips"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
