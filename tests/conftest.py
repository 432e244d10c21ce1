"""Shared fixtures: specs and generated programs, cached per session.

Generation (Fourier–Motzkin, loop synthesis) is deterministic and
moderately expensive for the 6-D problems, so programs are generated
once and shared; they are immutable analysis products.

Two autouse guards keep tier-1 deterministic whichever module forks the
process backend: no test may leave a ``/dev/shm`` segment behind, and a
test that runs past :data:`TEST_TIMEOUT_S` (a hung worker, a deadlocked
drain) fails on its own instead of hanging the run.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal

import pytest

from repro.generator import generate
from repro.runtime import compiled_executor
from repro.problems import (
    delayed_two_arm_spec,
    edit_distance_spec,
    lcs_spec,
    msa_spec,
    random_sequence,
    three_arm_spec,
    two_arm_spec,
)


SHM_DIR = "/dev/shm"

#: Hard per-test limit in seconds; the slowest tier-1 test takes ~20 s.
TEST_TIMEOUT_S = 300


def _shm_entries():
    """Names currently present in the shared-memory filesystem."""
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm platform
        return set()


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = _shm_entries()
    yield
    leaked = _shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@contextlib.contextmanager
def alarm_after(seconds, what):
    """Fail with "*what* exceeded ..." if the body runs past *seconds*.

    SIGALRM interrupts whatever the main thread is blocked in (a pipe
    read from a hung worker, a join) and the failure propagates through
    the runtime's own ``finally`` clean-up.  Forked workers do not
    inherit a pending alarm; an enclosing alarm is re-armed on exit.
    """

    def on_alarm(signum, frame):
        pytest.fail(
            f"{what} exceeded the hard per-test timeout of {seconds} s"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    remaining = signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(remaining)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def hard_timeout(request):
    """Fail the test, not the run, when it exceeds TEST_TIMEOUT_S."""
    with alarm_after(TEST_TIMEOUT_S, request.node.nodeid):
        yield


def auto_mode(program):
    """What ``mode="auto"`` must resolve to for *program*: the compiled
    tile body, else the array engine front at a time, else the
    interpreter."""
    ce = compiled_executor(program)
    if ce.native_reason is None:
        return "native"
    return "wavefront" if ce.vector_reason is None else "interpret"


def require_native(program):
    """Skip, with the named reason, where ``mode="native"`` cannot run."""
    reason = compiled_executor(program).native_reason
    if reason is not None:
        pytest.skip(f"native mode unavailable: {reason}")


@pytest.fixture(scope="session")
def bandit2_spec():
    return two_arm_spec(tile_width=3)


@pytest.fixture(scope="session")
def bandit2_program(bandit2_spec):
    return generate(bandit2_spec)


@pytest.fixture(scope="session")
def bandit2_w4_program():
    return generate(two_arm_spec(tile_width=4))


@pytest.fixture(scope="session")
def bandit3_program():
    return generate(three_arm_spec(tile_width=3))


@pytest.fixture(scope="session")
def delayed_program():
    return generate(delayed_two_arm_spec(tile_width=3))


@pytest.fixture(scope="session")
def edit_strings():
    return random_sequence(14, seed=11), random_sequence(11, seed=22)


@pytest.fixture(scope="session")
def edit_program(edit_strings):
    a, b = edit_strings
    return generate(edit_distance_spec(a, b, tile_width=4))


@pytest.fixture(scope="session")
def lcs3_strings():
    return [random_sequence(8 + k, seed=33 + k) for k in range(3)]


@pytest.fixture(scope="session")
def lcs3_program(lcs3_strings):
    return generate(lcs_spec(lcs3_strings, tile_width=3))


@pytest.fixture(scope="session")
def msa3_program(lcs3_strings):
    return generate(msa_spec(lcs3_strings, tile_width=3))


@pytest.fixture(scope="session")
def gcc_available():
    return shutil.which("gcc") is not None


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end tests (C compilation etc.)"
    )
