import os
import subprocess
import sys
import threading
from pathlib import Path

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    a = tracer.begin("api.call")          # 0 .. 10
    clock.now = 2.0
    b = tracer.begin("core.integrate")    # 2 .. 5
    clock.now = 3.0
    c = tracer.begin("integrands.call")   # 3 .. 4
    clock.now = 4.0
    tracer.end(c)
    clock.now = 5.0
    tracer.end(b)
    clock.now = 6.0
    d = tracer.begin("core.integrate")    # 6 .. 8
    clock.now = 8.0
    tracer.end(d)
    clock.now = 10.0
    tracer.end(a)

    spans = {s[0]: s for s in tracer.spans}
    self_time = {i: s[6] for i, s in spans.items()}
    assert self_time == {a[0]: 5.0, b[0]: 2.0, c[0]: 1.0, d[0]: 2.0}
    assert {s[2] for s in tracer.spans} == {a[0]}  # one trace id
    assert spans[c[0]][1] == b[0] and spans[b[0]][1] == a[0]
    # self times of a whole tree add up to the root's duration
    assert sum(self_time.values()) == 10.0

    summary = tracer.summary()
    assert summary["core.integrate"]["n"] == 2
    assert summary["core.integrate"]["total_s"] == 5.0
    assert summary["core.integrate"]["self_s"] == 4.0
    assert tracing.self_by_layer(tracing.snapshot(tracer)) == {
        "api": 5.0, "core": 4.0, "integrands": 1.0,
    }


def test_spans_on_other_threads_do_not_nest():
    tracer = tracing.Tracer()
    outer = tracer.begin("batch.round")
    seen = []

    def other():
        frame = tracer.begin("service.http.get")
        seen.append(frame)
        tracer.end(frame)

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.end(outer)
    record = next(s for s in tracer.spans if s[0] == seen[0][0])
    assert record[1] is None and record[2] == record[0]


def test_wrap_records_a_super_call_once():
    tracer = tracing.Tracer()

    class Base:
        def get(self):
            return 1

    class Child(Base):
        def get(self):
            return super().get() + 1

    tracing._patch(Base, "get", tracer, "service.cache.get")
    tracing._patch(Child, "get", tracer, "service.cache.get")
    assert Child().get() == 2
    assert tracer.summary()["service.cache.get"]["n"] == 1


def test_merge_adds_snapshots():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    frame = tracer.begin("batch.round")
    clock.now = 1.5
    tracer.end(frame)
    tracer.count("batch.rounds")
    snap = tracing.snapshot(tracer)
    merged = tracing.merge([snap, snap])
    assert merged["spans"]["batch.round"] == {"n": 2, "total_s": 3.0, "self_s": 3.0}
    assert merged["counts"] == {"batch.rounds": 2.0}
    assert merged["round_s"] == [1.5, 1.5]


def test_installed_wrappers_keep_results_and_cover_the_call():
    """A traced solve gives the same bits, and the layer self times add
    up to the API call."""
    bench = Path(tracing.__file__).resolve().parent
    code = (
        "import tracing, repro\n"
        "from repro.integrands.catalog import named_integrand\n"
        "f = named_integrand('3D-f4')\n"
        "plain = repro.integrate(f, 3, rel_tol=1e-4)\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "frame = t.begin('api.call')\n"
        "traced = repro.integrate(f, 3, rel_tol=1e-4)\n"
        "t.end(frame)\n"
        "assert traced.estimate == plain.estimate\n"
        "assert traced.errorest == plain.errorest\n"
        "snap = tracing.snapshot(t)\n"
        "layers = tracing.self_by_layer(snap)\n"
        "total = snap['spans']['api.call']['total_s']\n"
        "assert abs(sum(layers.values()) - total) < 1e-9 * max(1.0, total)\n"
        "assert snap['counts']['cubature.evals'] == traced.neval\n"
        "assert snap['counts']['integrands.evals'] == traced.neval\n"
        "assert snap['counts']['core.iterations'] == traced.iterations\n"
        "assert {'integrands', 'cubature', 'core', 'backends'} <= set(layers)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(bench), str(bench.parent / "src")])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
