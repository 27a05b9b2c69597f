"""Child-process driver: one full accuracy table, or one traced CLI call.

    python bench/child.py table [--trace PATH] --train-variants 7,5,3 --k 25 \\
        --manifest 68=m68.csv --manifest 79=m79.csv --manifest 194=m194.csv
    python bench/child.py cli TRACE_PATH train --manifest m.csv --out g.json

``table`` calls ``evalharness.run_experiment`` once per table cell, as the
paper's table is built, renders the text report and prints the rows and
the report as one JSON line.  ``cli`` installs the
tracing wrappers and then calls ``dtpca.cli.main(argv)``, exiting with its
return code.  Spans are written at exit to ``--trace`` (table, optional)
or TRACE_PATH (cli).
Needs ``src`` on PYTHONPATH.
"""

import argparse
import json
import sys
import time


def run_table(args, tracer):
    from dtpca import evalharness

    manifests = [item.partition("=")[::2] for item in args.manifest]
    tables = []
    for tv in (int(v) for v in args.train_variants.split(",")):
        for i, (label, path) in enumerate(manifests):
            config = evalharness.ExperimentConfig(
                manifest_path=path,
                train_variants=tv,
                k=args.k,
                modes=("pca_only", "dt_pca") if i == 0 else ("dt_pca",),
                landmark_scheme_label=label,
            )
            if tracer is not None:
                tracer.request = f"cell-{tv}-{label}"
            tables.append(evalharness.run_experiment(config))
    table = tables[0].merged(*tables[1:])
    report = evalharness.render_text_report(table)
    rows = [
        [r.train_count, r.test_count, r.mode, r.scheme, r.correct, r.total]
        for r in table.rows
    ]
    print(json.dumps({"rows": rows, "report": report}))
    return 0


def main(argv):
    start = time.perf_counter()
    import dtpca.cli
    imported = time.perf_counter()

    if argv[0] == "cli":
        trace, cli_argv = argv[1], argv[2:]
    else:
        parser = argparse.ArgumentParser()
        parser.add_argument("kind", choices=("table",))
        parser.add_argument("--trace")
        parser.add_argument("--manifest", action="append", required=True)
        parser.add_argument("--train-variants", required=True)
        parser.add_argument("--k", type=int, required=True)
        args = parser.parse_args(argv)
        trace = args.trace

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.add("cli.import", start, imported)
    try:
        if argv[0] == "cli":
            with tracer.active():
                return tracer.call(f"cli.{cli_argv[0]}", dtpca.cli.main, cli_argv)
        if tracer is None:
            return run_table(args, None)
        with tracer.active():
            return run_table(args, tracer)
    finally:
        if tracer is not None:
            tracer.dump(trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
