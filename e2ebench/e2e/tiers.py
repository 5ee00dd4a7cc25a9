"""Starting, probing and stopping the two tiers as child processes.

Both tools (and the traced tier) serve until EOF on stdin, then print a
shutdown summary. Tier.stop() closes stdin and waits, so every exit path
of the benchmark ends its processes the way an operator would, and the
summaries land in the run directory with the rest of the run's output.
"""

import http.client
import json
import os
import socket
import subprocess
import time


class TierError(RuntimeError):
    pass


def free_ports(count):
    """`count` distinct loopback ports that were free a moment ago."""
    sockets = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            sockets.append(s)
        return [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()


def port_open(port):
    """Whether something accepts connections on the loopback port."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        return s.connect_ex(("127.0.0.1", port)) == 0


def http_get(port, path, timeout=2.0):
    """(status, body bytes) of one GET on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def check_page(body, page, fragments, fragment_size):
    """The response oracle (same rules as the load generator's): None if
    `body` is page `page` of the synthetic site, else the failure kind."""
    if b"\x02" in body or b"\x03" in body:
        return "tag_bytes"
    if len(body) != fragments * fragment_size:
        return "length"
    for j in range(fragments):
        at = j * fragment_size
        opening = b'<div id="s%d"' % (page * fragments + j)
        if (body[at:at + len(opening)] != opening or
                body[at + fragment_size - 6:at + fragment_size] != b"</div>"):
            return "fragments"
    return None


class Tier:
    """One tier process; stdout and stderr go to <run_dir>/<name>.log."""

    def __init__(self, name, argv, run_dir):
        self.name = name
        self.log_path = os.path.join(run_dir, name + ".log")
        self._log = open(self.log_path, "ab")
        self._log.write(("$ " + " ".join(argv) + "\n").encode())
        self._log.flush()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def alive(self):
        return self.proc.poll() is None

    def cpu_seconds(self):
        """utime + stime of every thread so far, from /proc/<pid>/stat."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        # fields[0] is the state (field 3); utime/stime are fields 14/15.
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_kib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise TierError(f"{self.name}: no VmHWM in /proc status")

    def stop(self, timeout=15.0):
        """Closes stdin and waits; kills only if the tier does not exit.
        Returns the exit code."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            self._log.write(b"[killed: no exit after stdin EOF]\n")
        self._log.close()
        return code


class Deployment:
    """An origin and a DPC pointed at it, on ports chosen here.

    `origin_argv(port)` and `proxy_argv(port, origin_port)` build the
    command lines. start() returns the seconds from spawning both tiers to
    the first oracle-correct 200 through the DPC.
    """

    def __init__(self, label, run_dir, origin_argv, proxy_argv, site):
        self.label = label
        self.run_dir = run_dir
        self.origin_argv = origin_argv
        self.proxy_argv = proxy_argv
        self.site = site
        self.origin = None
        self.proxy = None
        self.origin_port = None
        self.proxy_port = None

    def start(self, timeout=20.0):
        self.origin_port, self.proxy_port = free_ports(2)
        begin = time.monotonic()
        self.origin = Tier(self.label + "-origin",
                           self.origin_argv(self.origin_port), self.run_dir)
        self.proxy = Tier(self.label + "-proxy",
                          self.proxy_argv(self.proxy_port, self.origin_port),
                          self.run_dir)
        deadline = begin + timeout
        last = "no answer"
        while time.monotonic() < deadline:
            for tier in (self.origin, self.proxy):
                if not tier.alive():
                    raise TierError(f"{tier.name} exited with "
                                    f"{tier.proc.returncode}; see "
                                    f"{tier.log_path}")
            # Ask only once both tiers listen: a request that reaches the
            # DPC before the origin listens costs a failed upstream dial
            # and makes the figure depend on which process started first.
            if not (port_open(self.origin_port) and
                    port_open(self.proxy_port)):
                time.sleep(0.0001)
                continue
            try:
                status, body = http_get(self.proxy_port, "/page?id=0")
            except OSError as e:
                last = str(e)
                time.sleep(0.0001)
                continue
            failure = None if status == 200 else f"status {status}"
            failure = failure or check_page(body, 0, self.site["fragments"],
                                            self.site["fragment_size"])
            if failure is None:
                return time.monotonic() - begin
            last = failure
            time.sleep(0.0001)
        raise TierError(f"{self.label}: no correct page through the DPC "
                        f"within {timeout}s ({last})")

    def prime(self):
        """Requests every page once, one after another, so each cacheable
        fragment is first inserted by a lone request. Concurrent first
        inserts of one fragment can leave a DPC slot holding another
        fragment's bytes for good (README.md, "What the seed shows")."""
        for page in range(self.site["pages"]):
            status, body = http_get(self.proxy_port, f"/page?id={page}")
            failure = None if status == 200 else f"status {status}"
            failure = failure or check_page(body, page,
                                            self.site["fragments"],
                                            self.site["fragment_size"])
            if failure is not None:
                raise TierError(f"{self.label}: priming /page?id={page} "
                                f"failed ({failure})")

    def check_wiring(self):
        """Each tier answers /_dynaprox/status on the port chosen for it,
        as the component expected there."""
        for tier, port, component in ((self.origin, self.origin_port,
                                       "origin"),
                                      (self.proxy, self.proxy_port, "dpc")):
            status, body = http_get(port, "/_dynaprox/status")
            if status != 200:
                raise TierError(f"{tier.name}: /_dynaprox/status on port "
                                f"{port} answered {status}")
            got = json.loads(body).get("component")
            if got != component:
                raise TierError(f"port {port} is a '{got}', expected the "
                                f"{component} started as {tier.name}")

    def scrape(self):
        """(origin, proxy) /metrics texts."""
        texts = []
        for port in (self.origin_port, self.proxy_port):
            status, body = http_get(port, "/_dynaprox/metrics")
            if status != 200:
                raise TierError(f"/_dynaprox/metrics on {port}: {status}")
            texts.append(body.decode())
        return texts

    def stop(self):
        """Stops the DPC, then the origin; returns their exit codes."""
        codes = {}
        for tier in (self.proxy, self.origin):
            if tier is not None:
                codes[tier.name] = tier.stop()
        self.origin = self.proxy = None
        return codes
