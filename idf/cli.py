"""CLI mirroring the reference's subcommand surface (app/CLI.java:13-19:
hash, cluster, plan, apply — plus run/synth; the `web` UI is out of
scope per SURVEY §2.1 S10).

Stage I/O is Parquet datasets instead of CSV files; every subcommand
owns its Ray session (the library never calls ray.init).

  python -m idf.cli synth   --out DIR --families N [--seed S]
  python -m idf.cli hash    IMAGES_DIR --out DIR [--algo phash]
  python -m idf.cli cluster RUN_DIR [--radius 10]   (needs prior hash)
  python -m idf.cli plan    RUN_DIR
  python -m idf.cli apply   IMAGES_DIR RUN_DIR
  python -m idf.cli run     IMAGES_DIR RUN_DIR [--algo] [--radius] [--no-resume]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray():
    """Init Ray if nobody else owns the session; returns (ray, owned)."""
    import ray

    owned = not ray.is_initialized()
    if owned:
        # cluster mode (north rule: `ray job submit` entrypoint): under a
        # job supervisor RAY_ADDRESS points at the cluster — attach to it
        # and let the cluster own resources. Standalone keeps local init.
        addr = os.environ.get("RAY_ADDRESS", "local")
        kw = {}
        if addr == "local":
            kw["num_cpus"] = int(os.environ.get("RAY_GRAFT_CPUS", "8"))
        ray.init(
            address=addr,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **kw,
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    class _Handle:
        def shutdown(self):
            if owned:
                ray.shutdown()

    return _Handle()


def _cfg(args) -> "object":
    from idf.config import DedupConfig, threshold_to_radius

    kw = {}
    if getattr(args, "algo", None):
        kw["algo"] = args.algo
    if getattr(args, "radius", None) is not None:
        kw["radius"] = args.radius
    elif getattr(args, "threshold", None) is not None:
        # reference web-UI knob (Commands.java:406-409): 0.95 -> 3
        kw["radius"] = threshold_to_radius(args.threshold)
    if getattr(args, "precomputed_phash", False) and getattr(args, "full_decode", False):
        raise SystemExit("--precomputed-phash and --full-decode are mutually exclusive")
    if getattr(args, "precomputed_phash", False):
        kw["use_precomputed_phash"] = True
        if getattr(args, "verify_fraction", None) is not None:
            kw["phash_verify_fraction"] = args.verify_fraction
    elif getattr(args, "full_decode", False):
        kw["use_precomputed_phash"] = False
        if getattr(args, "verify_fraction", None) is not None:
            raise SystemExit(
                "--verify-fraction only applies with --precomputed-phash "
                "(the full-decode path verifies every row by definition)"
            )
    elif getattr(args, "verify_fraction", None) is not None:
        # 'auto' default: an explicit fraction is honored when auto
        # resolves to the precomputed path (harmless when it doesn't)
        kw["phash_verify_fraction"] = args.verify_fraction
    return DedupConfig(**kw)


def cmd_synth(args) -> int:
    ray = _ray()
    from idf.synth import generate_images_table, write_images_table

    os.makedirs(args.out, exist_ok=True)
    tbl = generate_images_table(args.families, seed=args.seed)
    write_images_table(tbl, os.path.join(args.out, "images.parquet"))
    print(f"Wrote {tbl.num_rows} rows -> {args.out}/images.parquet")
    ray.shutdown()
    return 0


def _partial_run(
    images: str,
    run_dir: str,
    cfg,
    upto: str,
    resume: bool = True,
    base_hashes: str | None = None,
) -> int:
    """Run pipeline stages up to (and incl.) the named milestone."""
    ray = _ray()
    from idf.pipelines.dedup import run_dedup

    man = run_dedup(
        images,
        run_dir,
        cfg,
        resume=resume,
        do_apply=(upto == "apply"),
        base_hashes_dir=base_hashes,
    )
    summary = man.summary()
    milestones = {
        "hash": ["hashes"],
        "cluster": ["clusters"],
        "plan": ["plan"],
        "apply": ["apply_keep", "apply_quarantine"],
    }
    for name in milestones[upto]:
        info = summary.get(name, {})
        print(f"{name}: rows={info.get('rows')} wall={info.get('wall_sec')}s -> {man.stage_dir(name)}")
    ray.shutdown()
    return 0


def cmd_hash(args) -> int:
    # the reference `hash` stops after hashes.csv; here after the hashes
    # stage, committed exactly as `idf run` commits it (later subcommands
    # resume from the same run dir)
    ray = _ray()
    from idf.stages.hash_stage import fused_hash_stage, hash_schema, resolve_precomputed_cfg
    from idf.state.manifest import RunManifest

    man = RunManifest(args.out, resume=not args.no_resume)
    cfg = resolve_precomputed_cfg(args.images, _cfg(args))
    man.run_stage(
        "hashes", lambda: fused_hash_stage(args.images, cfg), empty_schema=hash_schema(cfg)
    )
    info = man.summary()["hashes"]
    print(f"Hashed {info['rows']} rows in {info['wall_sec']}s -> {man.stage_dir('hashes')}")
    ray.shutdown()
    return 0


def cmd_cluster(args) -> int:
    return _partial_run(args.images, args.run_dir, _cfg(args), "cluster")


def cmd_plan(args) -> int:
    return _partial_run(args.images, args.run_dir, _cfg(args), "plan")


def cmd_apply(args) -> int:
    return _partial_run(args.images, args.run_dir, _cfg(args), "apply")


def cmd_run(args) -> int:
    rc = _partial_run(
        args.images,
        args.run_dir,
        _cfg(args),
        "apply",
        resume=not args.no_resume,
        base_hashes=getattr(args, "base_hashes", None),
    )
    with open(os.path.join(args.run_dir, "manifest.json")) as f:
        man = json.load(f)
    print(json.dumps({k: v.get("rows") for k, v in man["stages"].items()}, indent=1))
    return rc


def cmd_export(args) -> int:
    """Export a committed stage in the REFERENCE's CSV shape, so a user
    of Besnn/ImageDuplicateFinder can hand our artifacts to their
    existing tooling:

      hashes   -> path,hash          (Commands.java:89, hash as
                                      Long.toUnsignedString)
      clusters -> clusterId,member   (Commands.java:153)
      plan     -> clusterId,action,path,reason  (Commands.java:278)

    No Ray session: one local pyarrow scan of the stage parquet."""
    import numpy as np
    import pyarrow.dataset as pads

    stage = args.stage
    d = os.path.join(args.run_dir, {"hashes": "hashes", "clusters": "clusters", "plan": "plan"}[stage])
    lines: list[str] = []
    if stage == "hashes":
        t = pads.dataset(d).to_table(columns=["image_id", "phash", "status"])
        ids = t["image_id"].to_pylist()
        hs = t["phash"].to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        ok = [s == "ok" for s in t["status"].to_pylist()]
        lines = [f"{i},{h}" for i, h, k in zip(ids, hs, ok) if k]
    elif stage == "clusters":
        t = pads.dataset(d).to_table(columns=["cluster_id", "image_id"])
        lines = [f"{c},{m}" for c, m in zip(t["cluster_id"].to_pylist(), t["image_id"].to_pylist())]
    else:
        t = pads.dataset(d).to_table(columns=["cluster_id", "action", "image_id", "reason"])
        lines = [
            f"{c},{a},{i},{r}"
            for c, a, i, r in zip(
                t["cluster_id"].to_pylist(),
                t["action"].to_pylist(),
                t["image_id"].to_pylist(),
                t["reason"].to_pylist(),
            )
        ]
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"Wrote {len(lines)} rows -> {args.out}")
    return 0


def cmd_serve(args) -> int:
    """`idf serve`: the CLI owns the Ray session; the server (stdlib
    http.server, idf/web_server.py) replicates app/WebServer.java's
    endpoint surface over the engine's stages."""
    handle = _ray()
    from idf.web_server import serve

    httpd, _state = serve(port=args.port, run_root=args.run_root)
    print(f"idf web server on http://127.0.0.1:{httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.shutdown()
        handle.shutdown()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="idf", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    se = sub.add_parser("export", help="export a stage as reference-shaped CSV")
    se.add_argument("run_dir")
    se.add_argument("stage", choices=["hashes", "clusters", "plan"])
    se.add_argument("--out", required=True)
    se.set_defaults(fn=cmd_export)

    sv = sub.add_parser("serve", help="HTTP control/data plane (reference web server analog)")
    sv.add_argument("--port", type=int, default=8080)
    sv.add_argument("--run-root", default="/tmp/idf_web")
    sv.set_defaults(fn=cmd_serve)

    sp = sub.add_parser("synth", help="generate a synthetic images table")
    sp.add_argument("--out", required=True)
    sp.add_argument("--families", type=int, default=50)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(fn=cmd_synth)

    for name, fn, needs_run in [
        ("hash", cmd_hash, False),
        ("cluster", cmd_cluster, True),
        ("plan", cmd_plan, True),
        ("apply", cmd_apply, True),
        ("run", cmd_run, True),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("images", help="images parquet dataset (dir or file)")
        if needs_run:
            sp.add_argument("run_dir")
        else:
            sp.add_argument("--out", required=True, help="run directory")
        sp.add_argument("--algo", choices=["ahash", "dhash", "phash"], default=None)
        sp.add_argument("--radius", type=int, default=None)
        sp.add_argument(
            "--threshold",
            type=float,
            default=None,
            help="similarity threshold (0,1]; radius = round((1-t)*64); ignored if --radius given",
        )
        sp.add_argument(
            "--precomputed-phash",
            action="store_true",
            help="trust the table's phash column; decode only a sampled "
            "fidelity gate (bytes-free scan when the table has a size column). "
            "Default 'auto': on when the table ships w/h/phash metadata",
        )
        sp.add_argument(
            "--full-decode",
            action="store_true",
            help="pin the always-decode path even when the table ships a "
            "phash column (overrides the 'auto' default)",
        )
        sp.add_argument(
            "--verify-fraction",
            type=float,
            default=None,
            help="sampled-decode fraction for --precomputed-phash (default 0.01)",
        )
        if name == "run":
            sp.add_argument(
                "--base-hashes",
                default=None,
                help="incremental mode: committed hashes dir of a prior run; "
                "IMAGES is then only the NEW images (decoded alone), and "
                "clusters/plan recompute over the union — identical to a "
                "full recompute. apply partitions only the new images; "
                "re-apply the base run if keepers may have moved",
            )
        sp.add_argument("--no-resume", action="store_true")
        sp.set_defaults(fn=fn)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
