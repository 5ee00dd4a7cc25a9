"""Ledger and response-oracle checks, against real processes.

The live tests build the generator and the traced tier first (the build
directory is $CARGO_TARGET_DIR/e2ebench, default .bench_build):

    python3 -m unittest discover -s e2ebench/tests
"""

import http.server
import os
import sys
import tempfile
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402
from e2e import ledger, tiers  # noqa: E402

SITE = {"pages": 10, "fragments": 4, "fragment_size": 1000,
        "cacheability": 0.6, "hit_ratio": 0.8}


class CoveredTest(unittest.TestCase):
    def test_union_clipped_to_parent(self):
        self.assertEqual(ledger.covered([(2, 5), (4, 8)], [(0, 10)]), 6)
        self.assertEqual(ledger.covered([(0, 20)], [(5, 10)]), 5)
        self.assertEqual(ledger.covered([(11, 12)], [(5, 10)]), 0)

    def test_parts_add_up_and_misnesting_shows_as_residual(self):
        record = {"index": 7, "intended": 0, "taken": 0, "sent": 10,
                  "head": 90, "done": 100, "page": 0, "kind": 0}
        nested = [(7, 20, 90, "dpc", "t"), (7, 30, 80, "upstream", "t"),
                  (7, 40, 70, "origin", "t"), (7, 50, 60, "script", "t")]
        rows, unjoined = ledger.build([record], 0, nested, "t")
        self.assertEqual(unjoined, 0)
        row = rows[0]
        self.assertEqual(row["latency_us"], 0.1)
        self.assertEqual(row["residual_us"], 0)
        self.assertAlmostEqual(row["net.ingress_us"], 0.02)
        self.assertAlmostEqual(row["workload.script_us"], 0.01)
        # An origin span outside its upstream round trip is a join error:
        # it is not subtracted from the hop, and shows as residual.
        stray = nested[:2] + [(7, 85, 95, "origin", "t"),
                              (7, 86, 88, "script", "t")]
        rows, _ = ledger.build([record], 0, stray, "t")
        self.assertAlmostEqual(rows[0]["residual_us"], -0.01)
        rows, unjoined = ledger.build([record], 0, nested[:1], "t")
        self.assertEqual(unjoined, 1)


class TracedRunTest(unittest.TestCase):
    """A short traced run: for every answered request, the ledger's self
    times plus its residual equal the client latency."""

    def test_ledger_adds_up(self):
        run.build(["e2e_loadgen", "e2e_traced_tier"])
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as run_dir:
            origin_argv, proxy_argv = run.traced_argv(SITE, 3, run_dir)
            deployment = tiers.Deployment("traced", run_dir, origin_argv,
                                          proxy_argv, SITE)
            try:
                deployment.start()
                phase = run.run_generator(run_dir, deployment.proxy_port,
                                          SITE, 4, 2000, 1.0, 5, "t")
            finally:
                codes = deployment.stop()
            self.assertFalse(any(codes.values()), codes)
            spans = (ledger.read_spans(os.path.join(run_dir, "proxy.spans"))
                     + ledger.read_spans(os.path.join(run_dir,
                                                      "origin.spans")))
        rows, unjoined = ledger.build(phase.records,
                                      phase.summary["origin_ns"], spans, "t")
        self.assertGreater(len(rows), 1000)
        self.assertEqual(unjoined, 0)
        for row in rows:
            parts = sum(row[name] for name in ledger.LAYERS)
            self.assertAlmostEqual(parts + row["residual_us"],
                                   row["latency_us"], places=6)
            self.assertAlmostEqual(row["residual_us"], 0, places=6)
            self.assertGreater(row["workload.script_us"], 0)


class _Site(http.server.BaseHTTPRequestHandler):
    """Serves page K as the oracle expects, except pages 1..3, which are
    broken one way each."""
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        page = int(self.path.rsplit("=", 1)[1])
        size, count = SITE["fragment_size"], SITE["fragments"]
        frags = []
        for j in range(count):
            head = b'<div id="s%d" v="0">' % (page * count + j)
            frags.append(head + b"x" * (size - len(head) - 6) + b"</div>")
        if page == 1:
            frags[1], frags[2] = frags[2], frags[1]
        body = b"".join(frags)
        if page == 2:
            body = body[:-1] + b"\x02"
        if page == 3:
            body = body[:-1]
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class OracleTest(unittest.TestCase):
    def test_generator_classifies_wrong_pages(self):
        run.build(["e2e_loadgen"])
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Site)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            with tempfile.TemporaryDirectory(dir=run.build_dir()) as run_dir:
                phase = run.run_generator(run_dir, server.server_address[1],
                                          SITE, 4, 300, 1.0, 9, "o")
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        by_page = {}
        for rec in phase.records:
            by_page.setdefault(rec["page"], set()).add(rec["kind"])
        self.assertEqual(by_page.get(1), {7})  # fragments out of order
        self.assertEqual(by_page.get(2), {8})  # tag byte left in body
        self.assertEqual(by_page.get(3), {6})  # wrong length
        for page, kinds in by_page.items():
            if page not in (1, 2, 3):
                self.assertEqual(kinds, {0}, page)
        self.assertEqual(tiers.check_page(b"", 0, 4, 1000), "length")

    def test_priming_fails_on_a_wrong_page(self):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Site)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            deployment = tiers.Deployment("fake", None, None, None, SITE)
            deployment.proxy_port = server.server_address[1]
            with self.assertRaisesRegex(tiers.TierError,
                                        r"page\?id=1 failed \(fragments\)"):
                deployment.prime()
        finally:
            server.shutdown()
            server.server_close()
            thread.join()


if __name__ == "__main__":
    unittest.main()
