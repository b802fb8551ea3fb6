"""Command-line interface.

Examples:
    cluster-loc build --n 4 --out cat.json
    cluster-loc verify --config inst.json --suite kernel --report out.json
    cluster-loc image-table --config inst.json
    cluster-loc classify --config inst.json --map "M44,SM24 -> M34"
    cluster-loc cone --n 4 --map "M44,SM24 -> M34"
    cluster-loc loc-hom --config inst.json --x M34 --y M13
    cluster-loc resolve --config inst.json --y M34
    cluster-loc zigzag --config inst.json --path "inv:M44,SM24 -> M34"
    cluster-loc export-dot --config inst.json --what ar-quiver

Morphism literals are 'SRC -> TGT @ [[rows]]' with comma-separated object
tokens (arcs 'a-b', labels 'M34', suspensions 'SM24'); omitting '@ ...' means
the all-ones bundle of basis maps.  Zigzag paths are ';'-separated morphism
literals, each optionally prefixed with 'inv:'.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .category import BuildError, build_category
from .localization import (Zigzag, classify, loc_hom, s_resolution,
                           zigzag_equal, zigzag_eval)
from .rigid import (VIEW_KINDS, is_cluster_tilting, is_rigid, perp_view,
                    right_addT_approx, rigid_object)
from .suites import (InstanceConfig, cached_category, export_dot, image_table,
                     run_suites)
from .triangles import complete_triangle


def _load_cfg(args) -> InstanceConfig:
    cfg = InstanceConfig.load(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = InstanceConfig(cfg.n, cfg.T, cfg.type, args.seed, cfg.suites)
    return cfg


def _instance(args):
    cfg = _load_cfg(args)
    cat = cached_category(cfg.n)
    t = rigid_object(cat, cfg.T)
    return cfg, cat, t


def cmd_build(args) -> int:
    cat = build_category(args.n)
    if args.out:
        cat.save(args.out)
        print(f"wrote {args.out}: rank {cat.n}, {cat.N} indecomposables, "
              f"{len(cat.hom_deg)} hom pairs")
    else:
        print(json.dumps(cat.to_dict(), indent=1, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    cfg = _load_cfg(args)
    if args.suite:
        cfg = InstanceConfig(cfg.n, cfg.T, cfg.type, cfg.seed,
                             [args.suite])   # validated like the file
    # opened before the run, so that a bad path fails at once
    with open(args.report, "w") if args.report else nullcontext() as fh:
        report = run_suites(cfg)
        for s in report["suites"]:
            status = ("ok" if not s["failures"]
                      else f"{len(s['failures'])} FAILED")
            print(f"{s['name']:22s} checks={s['checks']:<6d} {status}")
        print(f"total failures: {report['failures_total']}")
        if fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            print(f"wrote {args.report}")
    return 0 if report["failures_total"] == 0 else 1


def cmd_image_table(args) -> int:
    cfg, cat, t = _instance(args)
    rows = image_table(cfg, cat)
    if args.json:
        print(json.dumps(rows, indent=1, sort_keys=True))
        return 0
    for r in rows:
        dims = ",".join(str(d) for d in r["H_dims"])
        dec = " + ".join(r["decomposition"]) or "0"
        print(f"{r['label']:8s} {r['arc']:7s} dims=({dims})  H = {dec}")
    return 0


def cmd_classify(args) -> int:
    cfg, cat, t = _instance(args)
    f = cat.parse_mor(args.map)
    cls = classify(cat, t, f)
    print(f"map: {cat.format_mor(f)}")
    print(f"in_S_tilde: {cls.in_S_tilde}")
    print(f"in_S:       {cls.in_S}")
    print(f"H mono/epi: {cls.H_mono}/{cls.H_epi}")
    tri = cls.witness_triangle
    print(f"witness cone: {cat.obj_label(tri.z)}")
    return 0


def cmd_cone(args) -> int:
    if args.config:
        # T is resolved, so a config with a bad T is bad input here too
        _, cat, _ = _instance(args)
    elif args.n is not None:
        cat = cached_category(args.n)
    else:
        raise ValueError("need --config or --n")
    f = cat.parse_mor(args.map)
    tri = complete_triangle(cat, f)
    print(f"{cat.obj_label(tri.x)} -> {cat.obj_label(tri.y)} -> "
          f"{cat.obj_label(tri.z)} -> S({cat.obj_label(tri.x)})")
    print(f"certificate valid: {tri.cert.is_valid()}")
    return 0


def cmd_loc_hom(args) -> int:
    cfg, cat, t = _instance(args)
    x = cat.parse_obj_tokens(args.x)
    y = cat.parse_obj_tokens(args.y)
    lh = loc_hom(cat, t, x, y, verify=True)
    print(f"localized hom {cat.obj_label(x)} -> {cat.obj_label(y)}: "
          f"dimension {lh.dim}")
    print(f"resolutions: {cat.obj_label(lh.x_res[0])} -> {cat.obj_label(x)}, "
          f"{cat.obj_label(lh.y_res[0])} -> {cat.obj_label(y)}")
    for r in lh.reps:
        print(f"  representative: {cat.format_mor(r)}")
    return 0


def cmd_resolve(args) -> int:
    cfg, cat, t = _instance(args)
    y = cat.parse_obj_tokens(args.y)
    xp, s = s_resolution(cat, t, y)
    print(f"resolution of {cat.obj_label(y)}: source {cat.obj_label(xp)}")
    print(f"s = {cat.format_mor(s)}")
    return 0


def _parse_zigzag(cat, text: str) -> Zigzag:
    steps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        invert = part.startswith("inv:")
        if invert:
            part = part[4:]
        steps.append((cat.parse_mor(part), invert))
    return Zigzag(tuple(steps))


def cmd_zigzag(args) -> int:
    cfg, cat, t = _instance(args)
    z1 = _parse_zigzag(cat, args.path)
    ev = zigzag_eval(cat, t, z1)
    # both verdicts before any output, so bad input prints one error only
    equal = (zigzag_equal(cat, t, z1, _parse_zigzag(cat, args.path2))
             if args.path2 else None)
    print(f"evaluation: module map with component dimensions "
          f"{[(m.rows, m.cols) for m in ev.comps]}; iso: {ev.is_iso()}")
    if equal is not None:
        print(f"equal: {equal}")
    return 0


def cmd_check_rigid(args) -> int:
    cfg = _load_cfg(args)
    cat = cached_category(cfg.n)
    # a bad token, an empty or a repeating T is bad input, not a verdict
    if not is_rigid(cat, cat.obj(cfg.T)):
        print("not rigid: summand arcs cross")
        return 1
    t = rigid_object(cat, cfg.T)
    print(f"rigid: True; cluster-tilting: {is_cluster_tilting(cat, t)}")
    return 0


def cmd_perp(args) -> int:
    cfg, cat, t = _instance(args)
    labs = sorted(cat.labels[a] for a in perp_view(cat, t, args.kind))
    print(f"{args.kind}: {', '.join(labs) if labs else '(empty)'}")
    return 0


def cmd_approx(args) -> int:
    cfg, cat, t = _instance(args)
    x = cat.parse_obj_tokens(args.x)
    f = right_addT_approx(cat, t, x, minimal=not args.full)
    kind = "right add T-approximation" + ("" if args.full else " (minimal)")
    print(f"{kind} of {cat.obj_label(x)}:")
    print(f"  {cat.format_mor(f)}")
    return 0


def cmd_export_dot(args) -> int:
    cfg, _, _ = _instance(args)
    text = export_dot(cfg, args.what)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cluster-loc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build and serialize a category")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--config", required=True)
    p.add_argument("--suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("image-table", help="images of indecomposables")
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_image_table)

    p = sub.add_parser("classify", help="classify a morphism")
    p.add_argument("--config", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cone", help="complete a morphism to a triangle")
    p.add_argument("--config")
    p.add_argument("--n", type=int)
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("loc-hom", help="localized hom space")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_loc_hom)

    p = sub.add_parser("resolve", help="S-resolution of an object")
    p.add_argument("--config", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("zigzag", help="evaluate or compare zigzags")
    p.add_argument("--config", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--path2")
    p.set_defaults(func=cmd_zigzag)

    p = sub.add_parser("check-rigid", help="validate the configured T")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_check_rigid)

    p = sub.add_parser("perp", help="perpendicular subcategory members")
    p.add_argument("--config", required=True)
    p.add_argument("--kind", default="Tperp", choices=VIEW_KINDS)
    p.set_defaults(func=cmd_perp)

    p = sub.add_parser("approx", help="right add T-approximation")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--full", action="store_true",
                   help="skip the minimal reduction: keep every basis map "
                        "from a summand of T")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("export-dot", help="graph-text export")
    p.add_argument("--config", required=True)
    p.add_argument("--what", default="ar-quiver",
                   choices=["ar-quiver", "image-quiver"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BuildError, OSError) as e:
        print(f"cluster-loc {args.cmd}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
