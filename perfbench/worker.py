"""One fresh process of the benchmark: set-up, then timed bodies.

    python3 worker.py <checkout> <workdir> setup|run|trace <seconds>

``setup`` times importing the package and parsing and constructing every
input file in <workdir>, then prints the seconds and the machine's speed
(``calibrate.speed_now``) and exits.  ``run`` does the same set-up, then
repeats the timed body (the calls listed in <workdir>/manifest.json) for as
many rounds as fit in <seconds>, at least one, under a ``calibrate.Meter``,
and writes the outputs, the latencies as measured and at nominal speed, and
the peak RSS to <workdir>/result-run.json.  ``trace`` alternates an untraced
body with a traced one and writes the per-layer figures as well; the meter
runs there too, so the traced spans' self times include its slices (1-2%).

Only ``gc``, ``sys`` and ``time`` are imported before the set-up clock starts, so the
package pays for every module it imports itself.
"""
import gc
import sys
import time


def setup(checkout: str, workdir: str) -> tuple:
    """Import the package and build every input; returns (seconds, inputs)."""
    start = time.perf_counter()
    import tribrackets.algebra as algebra
    import tribrackets.diagram as diagram
    import os

    inputs = {}
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if name.endswith(".alg"):
            with open(path, encoding="utf-8") as fh:
                tensor, product = algebra.parse_algebra(fh.read())
            inputs[name] = (
                tensor if product is None else algebra.TribracketAlgebra(tensor, product)
            )
        elif name.endswith(".dia"):
            with open(path, encoding="utf-8") as fh:
                inputs[name] = diagram.parse_diagram(fh.read())
    return time.perf_counter() - start, inputs


def _flat(table) -> list:
    out = []
    for x in table:
        if isinstance(x, tuple):
            out.extend(_flat(x))
        else:
            out.append(x)
    return out


def _canonical(obj) -> list:
    """The parsed content of an input file, for the round-trip check."""
    if hasattr(obj, "constraints"):
        return [obj.name, obj.kind.value, list(obj.regions),
                [[c.kind.value, list(c.refs)] for c in obj.constraints]]
    if hasattr(obj, "tribracket"):
        return [_flat(obj.tribracket.table), _flat(obj.product.table)]
    return [_flat(obj.table), None]


def _caller(workdir: str, inputs: dict):
    """Map one manifest call to a thunk that makes the top-level package call."""
    import contextlib
    import io
    import os

    import tribrackets.cli as cli
    import tribrackets.coloring as coloring
    import tribrackets.enumeration as enumeration

    def make(kind: str, args: list):
        if kind == "count":
            alg, dia = inputs[args[0]], inputs[args[1]]
            return lambda: coloring.count_colorings(alg, dia), lambda r: r
        if kind == "tensors":
            n = args[0]

            def tensors():
                result = enumeration.enumerate_tribrackets(n)
                return result.items, result.complete

            return tensors, lambda r: [[_flat(t.table) for t in r[0]], r[1]]
        if kind in ("products", "idempotent"):
            tensor = inputs[args[0]]
            fn = "enumerate_products" if kind == "products" else "enumerate_idempotent_products"
            return (
                lambda: getattr(enumeration, fn)(tensor),
                lambda r: [_flat(p.table) for p in r],
            )
        if kind == "moves":
            argv = ["check-moves", os.path.join(workdir, args[0]), "--moves", args[1],
                    "--include-ih"]

            def moves():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue()

            return moves, list
        raise ValueError(f"unknown call kind {kind!r}")

    return make


def body(thunks: list, meter) -> dict:
    """Run every call once.  A call's latency leaves out turning its result
    into JSON and the time the meter's signal handler took during it."""
    gc.collect()  # every body starts from a heap without the last one's garbage
    spans, latencies, outputs = [], [], []
    start = time.perf_counter()
    for call, convert in thunks:
        held = meter.spent
        t0 = time.perf_counter()
        try:
            result = call()
            error = None
        except Exception as exc:  # a failing call is recorded, and the body goes on
            error = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        spans.append((t0, t1))
        latencies.append(t1 - t0 - (meter.spent - held))
        outputs.append(convert(result) if error is None else error)
    return {"wall_s": time.perf_counter() - start, "spans": spans, "latencies": latencies,
            "outputs": outputs}


def at_nominal_speed(bodies: list, meter) -> None:
    """Add each call's latency at the calibrated nominal speed to its body."""
    for b in bodies:
        speeds = [meter.speed(t0, t1) for t0, t1 in b.pop("spans")]
        b["nominal"] = [lat * v for lat, v in zip(b["latencies"], speeds)]
        b["speed"] = sorted(speeds)[len(speeds) // 2]


def main(argv: list) -> int:
    checkout, workdir, mode, seconds = argv[0], argv[1], argv[2], float(argv[3])
    sys.path.insert(0, checkout + "/src")
    if mode == "setup":
        seconds = setup(checkout, workdir)[0]
        import calibrate

        print(repr(seconds), repr(calibrate.speed_now()))
        return 0

    tracer = None
    if mode == "trace":
        import tribrackets  # noqa: F401  (wrappers need the loaded modules)

        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        with tracer.section("setup"):
            setup_s, inputs = setup(checkout, workdir)
        setup_spans = list(tracer.spans)
        tracer.uninstall()
    else:
        setup_s, inputs = setup(checkout, workdir)

    import json
    import resource

    with open(f"{workdir}/manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    make = _caller(workdir, inputs)
    thunks = [make(kind, args) for kind, args in manifest["calls"]]
    result = {
        "setup_s": setup_s,
        "package": sys.modules["tribrackets"].__file__,
        "roundtrip": {name: _canonical(obj) for name, obj in inputs.items()},
        "bodies": [],
        "traced": [],
    }
    import calibrate

    meter = calibrate.Meter()
    start = time.perf_counter()
    with meter:
        while True:
            result["bodies"].append(body(thunks, meter))
            if "rss_kb" not in result:
                # the high-water mark after one body, so it does not grow with the run length
                result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.spans = []
                tracer.install()
                try:
                    with tracer.section("body"):
                        traced = body(thunks, meter)
                finally:
                    tracer.uninstall()
                traced["layers"] = tracing.layer_metrics(setup_spans + tracer.spans)
                result["traced"].append(traced)
            # stop before a further round would overrun the measuring time
            elapsed = time.perf_counter() - start
            if elapsed * (len(result["bodies"]) + 1) / len(result["bodies"]) > seconds:
                break
    at_nominal_speed(result["bodies"] + result["traced"], meter)
    if tracer is not None:
        counts = [call for (kind, _), (call, _) in zip(manifest["calls"], thunks) if kind == "count"]
        result["peak_alloc"] = tracing.peak_alloc(counts)
    with open(f"{workdir}/result-{mode}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
