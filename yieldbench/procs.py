"""Process lifetime for the benchmark: start, stop, reap and audit.

Every process the runner starts carries ``YIELDBENCH_RUN=<token>`` in its
environment, and so does everything those processes start in turn (CLI pool
workers, multiprocessing resource trackers).  That makes "nothing left
running" checkable: :meth:`Reaper.survivors` scans ``/proc`` for the token.

The runner is made a child subreaper, so descendants orphaned by a dying
child are re-parented to it and can be reaped instead of lingering under
init.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def die_with_parent():
    """Ask the kernel to SIGKILL this process when its parent dies."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


class Reaper:
    """Starts children in their own process groups and guarantees their end."""

    def __init__(self, token, env):
        self.marker = ("YIELDBENCH_RUN=%s" % token).encode()
        self.env = dict(env, YIELDBENCH_RUN=token)
        self.children = []
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def spawn(self, argv, **kwargs):
        """Start ``argv`` as the leader of a new process group.

        The child is SIGKILLed by the kernel if the runner dies first.
        """
        kwargs.setdefault("env", self.env)
        proc = subprocess.Popen(
            argv, start_new_session=True, preexec_fn=die_with_parent, **kwargs
        )
        self.children.append(proc)
        return proc

    def wait(self, proc, timeout=None):
        """Wait for ``proc``; return ``(returncode, peak RSS in MB)``.

        ``wait4`` reports the largest resident set of the child and of the
        descendants it waited for.  Stragglers in its group are killed and
        reaped afterwards.
        """
        if timeout is None:
            _, status, usage = os.wait4(proc.pid, 0)
        else:
            deadline = time.monotonic() + timeout
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(proc.args, timeout)
                time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._finish_group(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop(self, proc, grace=5.0):
        """SIGTERM drain, then a deadline, then SIGKILL to the group, then reap."""
        if proc.returncode is None:
            try:
                os.kill(proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.wait(proc, timeout=grace)
            except subprocess.TimeoutExpired:
                _killpg(proc.pid)
                self.wait(proc)
        self._finish_group(proc)

    def _finish_group(self, proc):
        _killpg(proc.pid)
        _reap_group(proc.pid)
        if proc in self.children:
            self.children.remove(proc)

    def close(self, grace=5.0):
        """Stop every child still running and reap orphans that have exited."""
        for proc in list(self.children):
            self.stop(proc, grace)
        _reap_orphans()

    def survivors(self):
        """PIDs of live processes (not zombies) carrying this run's token."""
        found = []
        me = os.getpid()
        for name in os.listdir("/proc"):
            if not name.isdigit() or int(name) == me:
                continue
            try:
                with open("/proc/%s/environ" % name, "rb") as handle:
                    environ = handle.read()
            except OSError:
                continue
            if self.marker in environ.split(b"\0"):
                found.append(int(name))
        return found

    def kill_survivors(self):
        """SIGKILL and reap every survivor; return the PIDs that were found."""
        found = self.survivors()
        for pid in found:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while found and self.survivors() and time.monotonic() < deadline:
            _reap_orphans()
            time.sleep(0.01)
        _reap_orphans()
        return found


def _killpg(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid):
    """Reap the members of process group ``pgid`` that are our children."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            if os.waitid(os.P_PGID, pgid, os.WEXITED | os.WNOHANG) is None:
                time.sleep(0.005)
        except ChildProcessError:
            return


def _reap_orphans():
    """Reap every exited child, including orphans adopted as subreaper."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def shm_segments():
    """Names of the multiprocessing shared-memory segments now in /dev/shm."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()
