"""Lint: one door per step of *plan -> fold -> classify -> snapshot*.

Views become an accumulator only in ``engine.execute_plan`` (whose one
loop folds each day into its own partial with
``PrefixAccumulator.update_day``, on a pool of threads or not); per-/24
sums exist only in that
accumulator, never as a per-view aggregate; knobs are resolved only by
the engine; the facade plans in one place and a world's operator is
wired in one place (``MetaTelescope.for_world``, ``ipv6_telescope``
for the v6 world); snapshots are built only by
the modules that own a serving state; processes are started only by the
serving fleet, and the fold's day pool is the one thread pool in
``core/``; the native extension module
exports only its ``PyInit__kernels`` and has exactly six functions,
``fold_batch``, ``merge_sorted``, ``merge_k``, ``crc32_columns``,
``address_pass`` and ``parse_csv_block``, and nothing imports ``ctypes``
(one binding path); ``np.loadtxt`` is called in one function, the CSV
block parser's reference.  This test keeps
second doors — a convenience fold loop, a second aggregation, a facade
that plans for itself, a hand-built snapshot, a private process pool, a
separate native fold per key width, a second text parser — from growing
back.  Deleted layers
stay deleted by name, and every ``def`` and ``class`` under
``src/repro`` is referenced from src, tests, benchmarks or examples, so
a helper nothing calls is found the day it stops being called.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: ``call -> modules allowed to make it`` over all of ``src/repro``.
#: A call is named by its last dotted component, so ``build_snapshot(``
#: and ``snapshot.build_snapshot(`` are the same call.
ALLOWED_CALLERS = {
    "PrefixAccumulator": {"core/accum.py", "core/engine.py"},
    "resolve_execution_knobs": {"core/engine.py"},
    # One resolution of the ``kernel`` knob: the engine's knobs and the
    # accumulator's ask get_kernel, and only get_kernel builds a
    # NativeKernel (and only over a module that loaded).
    "get_kernel": {"core/engine.py", "core/accum.py"},
    "NativeKernel": {"core/kernels.py"},
    "build_snapshot": {
        "core/snapshot.py",
        "core/metatelescope.py",
        "core/online.py",
    },
    # A per-view aggregate: every per-/24 sum is read off the accumulator.
    "aggregates": set(),
    # One block-span table: the RIB's routed check and the registry's
    # special check build and probe it (the IPv6 candidates probe the
    # RIB's); the trie's own build stays a test oracle.
    "block_spans": {"bgp/rib.py", "net/special.py"},
    "interval_covered_mask": {"bgp/rib.py", "net/special.py"},
    # A world's operator is wired once: MetaTelescope.for_world, and
    # ipv6_telescope for the v6 world.
    "MetaTelescope": {"core/metatelescope.py", "core/ipv6_telescope.py"},
}
#: The same, but only for callers under ``src/repro/core/``.
ALLOWED_CORE_CALLERS = {"iter_chunks": {"core/accum.py"}}
#: ``module -> modules allowed to import it`` (``import x.y`` and
#: ``from x.y import z`` import ``x`` and ``x.y``; ``from x import y``
#: imports ``x`` and ``x.y``).
ALLOWED_IMPORTERS = {
    # Processes serve queries; the fold's days share out on threads.
    "multiprocessing": {"service/fleet.py"},
    # The fold's one day pool: a second thread pool under core/ is a
    # second door.
    "concurrent.futures": {"core/engine.py"},
    # The native kernels are a CPython extension module: no second,
    # ctypes-bound path to them.
    "ctypes": set(),
    # The prefix trie is the block-span table's test oracle: only the
    # package re-exports it, no production module builds one.
    "repro.net.trie": {"net/__init__.py"},
}
#: Public names deleted because no production entry point reached them
#: (``tools/reach``): federation's partial-accumulator path, the scalar
#: lookups the vectorised ones replaced, the topology walks, the
#: world-object wrappers and the test-only helpers — and the IPv6
#: copies of the address layer, the second conditional-query door and
#: the block-set wrapper, deleted as duplicates.  Deleted methods
#: whose names live code still uses (``dump``, ``describe``, ``union``,
#: ``prefixes``, ...) cannot be banned by word and are not listed.
DELETED_SURFACE = (
    # core/federation.py
    "from_accumulator", "excluded_members", "owner_of", "unmark",
    # scalar lookups: net/trie.py, bgp/rib.py, datasets/pfx2as.py
    "longest_match", "covers_block", "covered_mask", "origin_of_ip",
    "origin_of_block", "is_routed_block", "asn_of_block", "mapped_prefixes",
    "ip_in_prefix", "prefix_from_ip", "blocks_of_prefix",
    "is_special_block", "is_special_ip",
    # net/family.py, net/ipv4.py, net/ipv6.py, net/hilbert.py
    "family_names", "blocks_to_keys", "key_of_ip", "lo_of_ip",
    "block_of_key", "block_to_network_ip", "first_ip", "num_addresses",
    "contains_block", "contains_prefix", "grid_for_blocks",
    # bgp/topology.py
    "build_hierarchy", "transit_path_exists", "is_stub", "peers_of",
    # core/combine.py, core/online.py, core/accum.py, core/kernels.py
    "cumulative_day_results", "intersect_dark", "union_dark",
    "max_staleness_seen", "rows_ingested", "invalidate_cache",
    # The facade-less fold-and-classify door, core/combine.py's per-day
    # re-inference and stability wrapper (per-day inference is
    # MetaTelescope.infer, the stability count sorted_in_at_least), and
    # the envelope's private copy of MetaTelescope.for_world.
    "run_pipeline", "per_day_results", "stable_dark_blocks",
    "_make_telescope",
    # service/handle.py, core/snapshot.py
    "diff_since", "empty_snapshot",
    # flowpack.py, repro.io and its re-exports
    "error_fraction", "scan_archive", "archive_meta", "open_table_archive",
    "read_column", "rows_written", "append_flows_archive",
    "open_flows_archive", "read_flows_archive", "read_flows",
    # world/, robustness/catalog.py
    "giant_world", "small_ipv6_world", "paper_ipv6_world",
    "giant_ipv6_world", "micro_observatory", "DayGatedActor",
    "known_mask", "blocks_of_type", "blocks_of_country", "prune",
    "scenario_names",
    # net/blocksets.py, net/hilbert.py, reporting/ecdf.py, traffic/
    "from_prefixes", "to_cidrs", "d2xy", "xy2d", "sample_points",
    "from_blocks", "sample_sizes",
    # analysis/, reporting/, datasets/, geo/
    "top_dark_organizations", "estimated_attack_share", "overlap_share",
    "continent_counts", "log_scale_world_counts", "write_pgm",
    "is_heavy", "daily_dark_sets", "render_share_table", "by_type",
    "by_country", "org_of", "num_organizations", "countries_of_continent",
    # The IPv6 copies of the address layer: one Prefix type (its width
    # names the family), one AddressError, one block-span builder.
    "Ipv6Prefix", "Ipv6Error", "family_of_prefix", "prefix_type",
    "first_site", "num_sites", "contains_site", "site_of_ip6", "default_v6",
    "_announced_site_intervals",
    # service/daemon.py's second conditional door; net/blocksets.py's
    # wrapper of the sorted set algebra.
    "_conditional", "if_version_changed", "BlockSet",
    # The fold's row-range shards, their LPT buckets and tree merge
    # (core/parallel.py, ExecutionPlan.shards), and the archive's
    # row-range read that only they reached: every plan now folds each
    # day into its own partial and merges the days in order.
    "shard_views", "Shard", "_shard_view", "tree_merge", "shards",
    "max_shard_rows", "parallel_accumulate_views", "read_rows",
    # flowpack.py's file-handle header scan and its per-open flow family
    # match: an open walks the headers once, over its mapping (_walk),
    # and each header schema resolves once per process.
    "_scan_table", "_flow_family_of_spec", "_column_spec",
    # core/kernels.py's second kernel-name resolver and its cache of a
    # NativeKernel that might compute in numpy: get_kernel resolves.
    "resolve_kernel_name", "_native_kernel",
)
#: Parameters and dataclass fields deleted because no production entry
#: point ever gave them a second value (``tools/reach``'s second
#: section), as ``(module, function or class, parameter)``: the online
#: engine's four degraded-mode settings, the snapshot and pipeline
#: shortcuts' fold knobs, the auto chunk size's bounds, the archive
#: writers' append mode, and the analysis and rendering knobs nothing
#: passed — and the online engine's ``workers``, which had nothing to
#: share out: each update folds one day, and the pool shares out days.
DELETED_PARAMETERS = (
    *(("core/online.py", "OnlineMetaTelescope", name) for name in (
        "max_staleness", "expected_views", "quarantine_days", "min_quality",
        "workers",
    )),
    *(("core/metatelescope.py", "MetaTelescope.infer_snapshot", name)
      for name in ("day", "workers", "context", "provenance")),
    ("core/metatelescope.py", "MetaTelescopeResult.to_snapshot", "history"),
    *(("core/accum.py", "adaptive_chunk_rows", name)
      for name in ("target_chunks", "floor", "ceiling")),
    ("flowpack.py", "FlowpackWriter.__init__", "append"),
    ("flowpack.py", "TableWriter.__init__", "append"),
    # Knobs no caller anywhere (src, tests, benchmarks, examples) passed.
    ("analysis/as_dark_share.py", "dark_share_by_as", "as2org"),
    ("analysis/as_dark_share.py", "dark_share_by_as", "min_announced"),
    ("analysis/as_dark_share.py", "AsDarkShare", "org_name"),
    ("analysis/backscatter_analysis.py", "detect_victims",
     "max_modal_port_share"),
    ("analysis/scanners_analysis.py", "detect_scanners", "max_ports"),
    ("analysis/ports.py", "port_activity_by_group", "tcp_only"),
    ("core/confidence.py", "score_prefixes", "weights"),
    ("flowpack.py", "FlowpackArchive.iter_chunks", "verify"),
    ("reporting/beanplot.py", "render_bean_rows", "width"),
    ("reporting/ecdf.py", "render_ecdf_rows", "value_format"),
    ("reporting/worldmap.py", "render_country_bars", "width"),
    ("service/fleet.py", "FleetSupervisor.stop", "timeout"),
    ("vantage/ipfix.py", "encode_ipfix", "first_sequence"),
    ("world/capture_cache.py", "CaptureCache.store", "chunk_rows"),
    ("world/ipv6.py", "Ipv6Collector.__init__", "leak"),
    # The prefixes carry their family.
    ("bgp/rib.py", "RoutingTable.__init__", "family"),
    # A NativeKernel without its module: ``auto`` falls back to the
    # reference instead, which says why.
    ("core/kernels.py", "NativeKernel", "fallback_reason"),
)
#: Deleted second doors — the convenience fold, the per-view
#: aggregation and its view-fed tolerances, the stage plugin layer and
#: its second timing record, the test-only chunked captures, the fold's
#: process pool with its wire-form decoder and archive descriptors: not
#: defined, called or mentioned.
DELETED = re.compile(
    r"\b(?:accumulate_views|BlockAggregates|compute_block_aggregates"
    r"|tolerances?_for_views?"
    r"|StageEngine|StageContext|StageTiming|DEFAULT_STAGES|stage_timings"
    r"|capture_chunks|export_day_chunks|export_view_chunks"
    r"|from_state|_STATE_VERSION|ArchiveSlice|slice_ref|_FORK_WORK|_POOLS"
    r"|" + "|".join(DELETED_SURFACE) + r")\b"
)
#: Where a ``def`` or ``class`` under ``src/repro`` may be referenced.
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "examples")
#: The C source of the native extension module, the one symbol it may
#: export (every other function in it is ``static``) and the functions
#: its method table gives Python.
KERNEL_SOURCE = SRC / "core" / "_kernels.c"
KERNEL_EXPORTS = {"PyInit__kernels"}
KERNEL_METHODS = {
    "fold_batch", "merge_sorted", "merge_k", "crc32_columns", "address_pass",
    "parse_csv_block",
}
#: numpy's text readers, and the one ``(module, function)`` under
#: ``src/repro`` that may call one: the reference of the native CSV
#: block parser.
TEXT_READERS = {"loadtxt", "genfromtxt"}
TEXT_PARSERS = {("core/kernels.py", "_loadtxt_csv_block")}
#: The functions under ``src/repro/core/`` that may call ``.plan(``.
PLAN_CALLERS = {
    ("core/metatelescope.py", "plan"),
    ("core/metatelescope.py", "accumulate"),
}


def called_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def calls(source: str):
    """``(called name, enclosing function name, line)`` of every call."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and called_name(node) is not None:
            found.append((called_name(node), function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def imports(source: str):
    """``(module imported, line)`` of every absolute import: each dotted
    prefix of the path it names, once per statement."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        names = {
            ".".join(parts[:end])
            for parts in (path.split(".") for path in paths)
            for end in range(1, len(parts) + 1)
        }
        found.extend((name, node.lineno) for name in sorted(names))
    return found


def allowed_modules(name: str, module: str, function: str | None):
    """Modules that may make this call (``None``: anyone may)."""
    if name in ALLOWED_CALLERS:
        return ALLOWED_CALLERS[name]
    if not module.startswith("core/"):
        return None
    if name == "plan":
        return {module} if (module, function) in PLAN_CALLERS else set()
    return ALLOWED_CORE_CALLERS.get(name)


def offenders(sources: dict[str, str]) -> list[str]:
    """Second doors in ``{module path under src/repro: source}``."""
    found = []
    for module, source in sorted(sources.items()):
        for line, text in enumerate(source.splitlines(), start=1):
            if DELETED.search(text):
                found.append(f"src/repro/{module}:{line}: {text.strip()}")
        for name, function, line in calls(source):
            allowed = allowed_modules(name, module, function)
            if allowed is not None and module not in allowed:
                found.append(f"src/repro/{module}:{line}: {name}( in {function}")
        for name, line in imports(source):
            if name in ALLOWED_IMPORTERS and module not in ALLOWED_IMPORTERS[name]:
                found.append(f"src/repro/{module}:{line}: import {name}")
    return found


def c_functions(source: str) -> dict[str, bool]:
    """``name -> exported`` for every function defined in C ``source``.

    A definition is exported unless ``static``.  Macro bodies count as
    code — a function a macro stamps out is still defined, and is named
    with its token pastes dropped — while comments and directive heads
    do not.
    """
    code = re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.S)
    code = code.replace("\\\n", " ").replace("##", "")
    code = re.sub(
        r"^[ \t]*#[ \t]*(?:define[ \t]+\w+(?:\([^)]*\))?|.*)", ";", code, flags=re.M
    )
    # Bodies collapse to "{}", leaving each top-level head before one.
    depth, top = 0, []
    for char in code:
        depth -= char == "}"
        if depth == 0:
            top.append(char)
        depth += char == "{"
    functions = {}
    for match in re.finditer(r"([^;{}]*)\{\}", "".join(top)):
        head = match.group(1).rstrip()
        if not head.endswith(")"):
            continue  # a struct, union or enum body
        depth = 0
        for start in range(len(head) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(head[start], 0)
            if depth == 0:
                break
        name = re.search(r"(\w+)\s*$", head[:start]).group(1)
        functions[name] = re.search(r"\bstatic\b", head) is None
    return functions


def c_exports(source: str) -> set[str]:
    """The non-``static`` function definitions in C ``source``."""
    return {name for name, exported in c_functions(source).items() if exported}


def c_methods(source: str) -> set[str]:
    """The Python names in every ``PyMethodDef`` table of C ``source``."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*", " ", source, flags=re.S)
    return {
        name
        for table in re.findall(r"PyMethodDef\s+\w+\s*\[\s*\]\s*=\s*\{(.*?)\};",
                                code, flags=re.S)
        for name in re.findall(r"\{\s*\"(\w+)\"", table)
    }


def tree_sources() -> dict[str, str]:
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in SRC.rglob("*.py")
    }


def definitions(source: str):
    """``(name, line)`` of every ``def`` and ``class`` (dunders aside:
    the language calls those)."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreferenced(sources: dict[str, str], corpus: list[str]) -> list[str]:
    """Definitions in ``{module path under src/repro: source}`` whose
    name occurs in the ``corpus`` texts no more often than it is
    defined there: nothing calls, imports or mentions them."""
    words = Counter(word for text in corpus for word in re.findall(r"\w+", text))
    defined = Counter(
        name for source in sources.values() for name, _ in definitions(source)
    )
    return [
        f"src/repro/{module}:{line}: {name}"
        for module, source in sorted(sources.items())
        for name, line in definitions(source)
        if words[name] <= defined[name]
    ]


def reference_corpus() -> list[str]:
    """Every Python file a definition may be referenced from."""
    return [
        path.read_text()
        for root in REFERENCE_ROOTS
        for path in (REPO / root).rglob("*.py")
    ]


def test_each_step_has_one_door():
    found = offenders(tree_sources())
    assert not found, (
        "views fold only through engine.execute_plan, per-/24 sums come "
        "only from its accumulator, knobs resolve only "
        "in the engine, the facade plans only in MetaTelescope.plan / "
        ".accumulate, a world's operator is wired only by "
        "MetaTelescope.for_world / ipv6_telescope, snapshots are built "
        "only by snapshot / metatelescope / online, only service/fleet.py "
        "imports multiprocessing, only core/engine.py imports "
        "concurrent.futures (nothing imports ctypes):\n"
        + "\n".join(found)
    )


def test_lint_actually_catches_a_second_door():
    # Guard the guard: paste the deleted forks back and they are found.
    sources = tree_sources()
    pasted = {
        "core/accum.py": (
            "def accumulate_views(views):\n"
            "    accumulator = PrefixAccumulator()\n"
            "    for view in views:\n"
            "        accumulator.update_day(view.day, [view])\n"
            "    return accumulator\n"
        ),
        "core/pipeline.py": "convenience = accumulate_views([])\n",
        "core/parallel.py": (
            "def _fold(flows, chunk_size):\n"
            "    for chunk in flows.iter_chunks(chunk_size):\n"
            "        pass\n"
        ),
        "core/online.py": (
            "def _fold(self, views):\n"
            "    return self.telescope.plan(views)\n"
        ),
        "core/ipv6_telescope.py": "snapshot = build_snapshot(day=0, dark=[])\n",
        # A world wired by hand beside MetaTelescope.for_world.
        "cli.py": (
            "telescope = MetaTelescope(\n"
            "    collector=world.collector,\n"
            "    liveness=world.datasets.liveness,\n"
            ")\n"
        ),
        "robustness/envelope.py": (
            "workers = resolve_execution_knobs(workers=0).workers\n"
            "partial = PrefixAccumulator()\n"
        ),
        "core/federation.py": (
            "workers = resolve_execution_knobs(workers=0).workers\n"
        ),
        "core/online.py": "import multiprocessing\n",
        "core/metatelescope.py": "import multiprocessing.pool\n",
        "service/daemon.py": "from multiprocessing import get_context\n",
        # The second aggregation: a per-view cache, its readers and the
        # view-fed tolerance doors.
        "vantage/sampling.py": (
            "class BlockAggregates:\n"
            "    pass\n"
        ),
        "vantage/archive.py": (
            "def aggregates(view):\n"
            "    return compute_block_aggregates(view.flows)\n"
        ),
        "core/confidence.py": "agg = view.aggregates()\n",
        "core/thresholds.py": "src_blocks = views[0].aggregates().src_blocks\n",
        "core/spoofing_tolerance.py": (
            "def tolerance_for_view(view, unrouted_blocks):\n"
            "    return tolerances_for_views([view], unrouted_blocks)\n"
        ),
        "core/__init__.py": (
            "from repro.core.spoofing_tolerance import tolerances_for_views\n"
        ),
    }
    for module, fork in pasted.items():
        assert not offenders({module: sources[module]}), module
        found = offenders({module: sources[module] + "\n" + fork})
        assert found, (module, fork)
    found = offenders({"core/pipeline.py": pasted["core/pipeline.py"]})
    assert found == [
        "src/repro/core/pipeline.py:1: convenience = accumulate_views([])"
    ]
    assert DELETED.search("from repro.core.parallel import parallel_accumulate_views")
    # Each rule names what it found, and only that.
    assert offenders({"core/federation.py": pasted["core/federation.py"]}) == [
        "src/repro/core/federation.py:1: resolve_execution_knobs( in None"
    ]
    assert offenders({"cli.py": pasted["cli.py"]}) == [
        "src/repro/cli.py:1: MetaTelescope( in None"
    ]
    # The online engine's own class is not the facade's constructor.
    assert not offenders({"cli.py": "online = OnlineMetaTelescope(t)\n"})
    assert offenders({"core/online.py": pasted["core/online.py"]}) == [
        "src/repro/core/online.py:1: import multiprocessing"
    ]
    assert not offenders({"core/online.py": "from .multiprocessing import x\n"})
    # The fold's days share out once, on threads: a process pool pasted
    # back into the engine, or a second thread pool beside it, is found.
    engine_py = sources["core/engine.py"]
    assert not offenders({"core/engine.py": engine_py})
    line = engine_py.count("\n") + 2
    assert offenders(
        {"core/engine.py": engine_py + "\nimport multiprocessing\n"}
    ) == [f"src/repro/core/engine.py:{line}: import multiprocessing"]
    for fork in (
        "from concurrent.futures import ThreadPoolExecutor",
        "import concurrent.futures",
        "from concurrent import futures",
    ):
        assert offenders({"core/online.py": fork + "\n"}) == [
            "src/repro/core/online.py:1: import concurrent.futures"
        ], fork
    # A ctypes binding beside the extension module, in any form.
    kernels_py = sources["core/kernels.py"]
    assert not offenders({"core/kernels.py": kernels_py})
    for fork in ("import ctypes", "from ctypes import CDLL", "import ctypes.util"):
        line = kernels_py.count("\n") + 2
        assert offenders({"core/kernels.py": kernels_py + "\n" + fork + "\n"}) == [
            f"src/repro/core/kernels.py:{line}: import ctypes"
        ]
    assert offenders({"core/confidence.py": pasted["core/confidence.py"]}) == [
        "src/repro/core/confidence.py:1: aggregates( in None"
    ]
    assert offenders(
        {"core/spoofing_tolerance.py": pasted["core/spoofing_tolerance.py"]}
    ) == [
        "src/repro/core/spoofing_tolerance.py:1: "
        "def tolerance_for_view(view, unrouted_blocks):",
        "src/repro/core/spoofing_tolerance.py:2: "
        "return tolerances_for_views([view], unrouted_blocks)",
    ]
    # The one door stays open: the accumulator's readers are not caught.
    assert not offenders({
        "core/thresholds.py": "observed = accumulator.observed_blocks()\n",
        "core/metatelescope.py": (
            "tolerance = tolerances_from_accumulator(accumulator, baseline)\n"
        ),
        "core/confidence.py": "finalized = accumulator.finalize()\n",
    })
    # The import rule really covers code: each allowed importer imports it.
    for name, modules in ALLOWED_IMPORTERS.items():
        for module in modules:
            assert name in {found for found, _ in imports(sources[module])}
    # The scopes really cover code: the one fold and its callers exist.
    names = {name for name, _, _ in calls(sources["core/engine.py"])}
    assert {"update_day", "merged", "ThreadPoolExecutor"} <= names
    assert "iter_chunks" in {
        name for name, _, _ in calls(sources["core/accum.py"])
    }
    assert "MetaTelescope" in {
        name for name, _, _ in calls(sources["core/ipv6_telescope.py"])
    }
    assert {
        (module, function)
        for module in ("core/metatelescope.py", "core/pipeline.py")
        for name, function, _ in calls(sources[module])
        if name == "plan"
    } == PLAN_CALLERS


def test_deleted_layers_stay_deleted():
    # Guard the guard: each deleted name pasted back is found, alone.
    pasted = {
        "core/stages.py": "class StageEngine: ...\n",
        "core/engine.py": "rows = context.stage_timings()\n",
        "core/online.py": "from repro.core.stages import StageTiming\n",
        "core/pipeline.py": "DEFAULT_STAGES = ()\n",
        "core/metatelescope.py": "ctx = StageContext(finalized)\n",
        "vantage/telescope.py": "chunks = telescope.capture_chunks(flows, 0)\n",
        "vantage/ixp.py": "exports = fabric.export_day_chunks(flows, rng)\n",
        "vantage/archive.py": "def export_view_chunks(vantage, day, chunks): ...\n",
        "core/accum.py": "restored = PrefixAccumulator.from_state(state)\n",
        "core/parallel.py": "entry = view.slice_ref(start, stop)\n",
        "core/snapshot.py": "class ArchiveSlice: ...\n",
        "core/thresholds.py": "_POOLS: dict = {}\n",
        "core/refine.py": "_FORK_WORK = None\n",
    }
    for module, text in pasted.items():
        assert offenders({module: text}) == [
            f"src/repro/{module}:1: {text.strip()}"
        ], module
    # A name that merely contains one is not caught.
    assert not offenders({"cli.py": "def _print_stage_timings(): ...\n"})


def test_unreached_surface_stays_deleted():
    # Guard the guard: each deleted name, pasted back as a definition or
    # a call, is found alone.
    for name in DELETED_SURFACE:
        for text in (f"def {name}(self): ...\n", f"found = table.{name}(x)\n"):
            assert offenders({"core/refine.py": text}) == [
                f"src/repro/core/refine.py:1: {text.strip()}"
            ], name
    # Live names that contain a deleted one are not caught.
    assert not offenders({
        "io.py": "report = read_flows_archive_lenient(path)\n",
        "core/metatelescope.py": (
            "tolerance = tolerances_from_accumulator(accumulator, baseline)\n"
        ),
        "bgp/rib.py": "mask = self.routed_mask(blocks)\n",
    })


def test_one_address_layer_stays_one():
    # Guard the guard: the IPv6 copies pasted back are found, each alone.
    sources = tree_sources()
    pasted = {
        "net/ipv6.py": "class Ipv6Prefix: ...\n",
        "net/family.py": "prefix_type = Prefix if v4 else Ipv6Prefix\n",
        "core/ipv6_candidates.py": "first = prefix.first_site()\n",
        "world/ipv6.py": "from repro.net.ipv6 import Ipv6Error, site_of_ip6\n",
        "service/daemon.py": 'since = _first_int(params, "if_version_changed")\n',
        "analysis/stability.py": "from repro.net.blocksets import BlockSet\n",
    }
    for module, text in pasted.items():
        assert offenders({module: text}) == [
            f"src/repro/{module}:1: {text.strip()}"
        ], module
    # One span builder, called by the RIB and the registry only.
    for module, text in (
        ("core/ipv6_candidates.py", "starts, ends = block_spans(announced)\n"),
        ("core/online.py", "mask = interval_covered_mask(starts, ends, b)\n"),
    ):
        name = text.split("= ")[1].split("(")[0]
        assert offenders({module: text}) == [
            f"src/repro/{module}:1: {name}( in None"
        ], module
    for module in ("bgp/rib.py", "net/special.py"):
        names = {name for name, _, _ in calls(sources[module])}
        assert {"block_spans", "interval_covered_mask"} <= names, module
    # ... and the trie is no production module's import, in any form.
    for fork in (
        "from repro.net.trie import PrefixTrie",
        "from repro.net import trie",
        "import repro.net.trie",
    ):
        assert offenders({"bgp/rib.py": fork + "\n"}) == [
            "src/repro/bgp/rib.py:1: import repro.net.trie"
        ], fork
    assert not offenders({"net/__init__.py": sources["net/__init__.py"]})
    # Live names that contain a deleted one are not caught.
    assert not offenders({
        "bgp/rib.py": "spans = block_spans(BlockSets)\n",
        "world/ipv6.py": "num_sites_total = first_sites = 0\n",
    })


def named(tree: ast.Module, qualname: str):
    """The function or class ``qualname`` names in ``tree``, or None."""
    node = tree
    for part in qualname.split("."):
        node = next(
            (child for child in node.body
             if isinstance(child, (ast.FunctionDef, ast.ClassDef))
             and child.name == part),
            None,
        )
        if node is None:
            return None
    return node


def parameters(node) -> set[str]:
    """A function's parameter names, or a class's annotated fields and
    its ``__init__``'s parameters."""
    if isinstance(node, ast.ClassDef):
        init = named(node, "__init__")
        return {
            statement.target.id for statement in node.body
            if isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        } | (parameters(init) if init is not None else set())
    arguments = node.args
    return {
        arg.arg for arg in
        arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    }


def pasted_parameters(sources: dict[str, str]) -> list[str]:
    """Each deleted parameter that is back in its signature, and each
    entry whose function or class is gone (so the list stays true)."""
    found = []
    for module, qualname, name in DELETED_PARAMETERS:
        node = named(ast.parse(sources[module]), qualname)
        if node is None:
            found.append(f"src/repro/{module}: no {qualname}")
        elif name in parameters(node):
            found.append(f"src/repro/{module}:{node.lineno}: {qualname}({name})")
    return found


def test_deleted_parameters_stay_deleted():
    found = pasted_parameters(tree_sources())
    assert not found, (
        "deleted knobs are back; no entry point sets them:\n"
        + "\n".join(found)
    )


def test_parameter_lint_actually_catches_a_pasted_parameter():
    # Guard the guard: each deleted parameter, pasted back into its
    # signature (a keyword-only parameter, or a dataclass field), is
    # found alone; the same name elsewhere in the module is not.
    clean = tree_sources()
    for module, qualname, name in DELETED_PARAMETERS:
        tree = ast.parse(clean[module])
        node = named(tree, qualname)
        if isinstance(node, ast.ClassDef):
            node.body.append(ast.parse(f"{name}: int | None = None").body[0])
        else:
            node.args.kwonlyargs.append(ast.arg(arg=name))
            node.args.kw_defaults.append(ast.Constant(value=None))
        sources = {**clean, module: ast.unparse(tree)}
        found = pasted_parameters(sources)
        assert len(found) == 1 and found[0].endswith(f"{qualname}({name})"), (
            module, qualname, name, found,
        )
    assert not pasted_parameters({
        **clean,
        "core/pipeline.py": clean["core/pipeline.py"]
        + "\n\ndef other(chunk_size=None, workers=None):\n    pass\n",
    })
    tree = ast.parse(clean["core/accum.py"])
    tree.body = [
        node for node in tree.body
        if getattr(node, "name", None) != "adaptive_chunk_rows"
    ]
    assert pasted_parameters({**clean, "core/accum.py": ast.unparse(tree)}) == [
        "src/repro/core/accum.py: no adaptive_chunk_rows"
    ] * 3


def test_kernel_resolution_lint_actually_catches_a_second_resolver():
    # Guard the guard: the degraded shell's parameter, pasted back into
    # NativeKernel.__init__, is found, and so is a kernel resolved or a
    # NativeKernel built outside get_kernel's module and its two callers.
    clean = tree_sources()
    tree = ast.parse(clean["core/kernels.py"])
    init = named(tree, "NativeKernel.__init__")
    init.args.args.append(ast.arg(arg="fallback_reason"))
    init.args.defaults.append(ast.Constant(value=None))
    found = pasted_parameters({**clean, "core/kernels.py": ast.unparse(tree)})
    assert len(found) == 1 and found[0].endswith(
        "NativeKernel(fallback_reason)"
    ), found
    for module, text, caught in (
        ("cli.py", "kernel = get_kernel(args.kernel)\n", "get_kernel( in None"),
        ("core/online.py", "kernel = NativeKernel(ext)\n", "NativeKernel( in None"),
        ("core/engine.py", "name = resolve_kernel_name(kernel)\n",
         "name = resolve_kernel_name(kernel)"),
        ("core/kernels.py", "def _native_kernel(): ...\n",
         "def _native_kernel(): ..."),
    ):
        assert offenders({module: text}) == [
            f"src/repro/{module}:1: {caught}"
        ], module
    assert not offenders({"core/accum.py": "kernel = get_kernel(None)\n"})


def test_every_definition_is_referenced():
    found = unreferenced(tree_sources(), reference_corpus())
    assert not found, (
        "every def and class under src/repro is referenced from src, "
        "tests, benchmarks or examples; delete these or use them:\n"
        + "\n".join(found)
    )


def test_reference_lint_actually_catches_an_orphan():
    # Guard the guard: a helper nothing calls is found and named, and
    # one reference anywhere in the corpus clears it.
    sources = tree_sources()
    sources["core/refine.py"] += "\n\ndef orphan_helper(flows):\n    return flows\n"
    # This file names the orphan too, so it is left out of the corpus.
    this_file = Path(__file__).read_text()
    corpus = [text for text in reference_corpus() if text != this_file]
    corpus.append(sources["core/refine.py"])
    line = sources["core/refine.py"].count("\n") - 1
    assert unreferenced(sources, corpus) == [
        f"src/repro/core/refine.py:{line}: orphan_helper"
    ]
    assert not unreferenced(sources, corpus + ["orphan_helper(views)"])
    # Methods count, dunders do not.
    method = (
        "class Orphan:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def lonely(self):\n"
        "        pass\n"
    )
    assert unreferenced({"x.py": method}, [method]) == [
        "src/repro/x.py:1: Orphan",
        "src/repro/x.py:4: lonely",
    ]


def text_parsers(sources: dict[str, str]) -> set[tuple[str, str | None]]:
    """``(module, enclosing function)`` of every numpy text-reader call
    in ``{module path under src/repro: source}``."""
    return {
        (module, function)
        for module, source in sources.items()
        for name, function, _ in calls(source)
        if name in TEXT_READERS
    }


def test_one_text_parser():
    found = text_parsers(tree_sources())
    assert found == TEXT_PARSERS, (
        "flow CSV blocks are parsed by core.kernels.parse_csv_block: the "
        "native parser, or its np.loadtxt reference in "
        f"_loadtxt_csv_block and nowhere else: {sorted(found)}"
    )


def test_text_parser_lint_actually_catches_a_second_loadtxt():
    # Guard the guard: a second numpy text reader, in any module and
    # however it is imported, is found with its function.
    sources = tree_sources()
    pasted = {
        ("io.py", "_plain_columns"): (
            "def _plain_columns(block, parse):\n"
            "    return np.loadtxt(BytesIO(block), delimiter=',', dtype=parse)\n"
        ),
        ("core/kernels.py", "parse_rows"): (
            "def parse_rows(path):\n"
            "    from numpy import genfromtxt\n"
            "    return genfromtxt(path, delimiter=',')\n"
        ),
        ("flowpack.py", None): "ROWS = numpy.loadtxt('rows.csv')\n",
    }
    for (module, function), fork in pasted.items():
        forked = {**sources, module: sources[module] + "\n" + fork}
        assert text_parsers(forked) == TEXT_PARSERS | {(module, function)}
    assert text_parsers({"io.py": "table = np.load(path)\n"}) == set()


def test_native_library_exports_exactly_six_functions():
    source = KERNEL_SOURCE.read_text()
    found = c_exports(source), c_methods(source)
    assert found == (KERNEL_EXPORTS, KERNEL_METHODS), (
        "core/_kernels.c is an extension module: it exports only "
        "PyInit__kernels, every other C function is static, and its "
        "method table holds exactly fold_batch, merge_sorted, merge_k, "
        "crc32_columns, address_pass and parse_csv_block (one op per "
        "job, every key width and every batch through the same "
        "fold_batch, every segment's checksums in one crc32_columns "
        "call, the funnel's address table in one address_pass walk, a "
        "plain CSV block in one parse_csv_block pass): exports "
        f"{sorted(found[0])}, methods {sorted(found[1])}"
    )


def test_export_lint_actually_catches_a_fourth_export():
    # Guard the guard: a separate wide fold pasted in as a plain
    # function, stamped out by a macro, or a helper that lost its
    # ``static``, is each found and named; so is a seventh entry in the
    # module's method table.
    source = KERNEL_SOURCE.read_text()
    pasted = {
        "fold_chunk64": (
            "/* A separate 64-bit fold. */\n"
            "int64_t fold_chunk64(\n"
            "    const uint64_t *src_ip, const uint64_t *dst_ip,\n"
            "    int64_t n, void *bufa)\n"
            "{\n"
            "    if (n == 0) { return 0; }\n"
            "    return n;\n"
            "}\n"
        ),
        "fold_W": (
            "#define EXPORT_FOLD(W) \\\n"
            "__attribute__((visibility(\"default\"))) int64_t fold_##W( \\\n"
            "    int64_t n) { return n; }\n"
            "EXPORT_FOLD(wide)\n"
        ),
    }
    for name, fork in pasted.items():
        assert c_exports(source + "\n" + fork) == KERNEL_EXPORTS | {name}
    for helper in ("bits_of", "fold_batch", "merge_k"):
        unstatic = re.sub(rf"\bstatic (\w+ {helper}\()", r"\1", source)
        assert unstatic != source
        assert c_exports(unstatic) == KERNEL_EXPORTS | {helper}
    # A seventh function in the method table, however it is spelled.
    table = "static PyMethodDef kernel_methods[] = {\n"
    assert table in source
    seventh = source.replace(
        table,
        table + '    {"fold_chunk64", (PyCFunction)(void (*)(void))py_fold_batch,\n'
        "     METH_FASTCALL, NULL},\n",
    )
    assert c_methods(seventh) == KERNEL_METHODS | {"fold_chunk64"}
    assert c_methods(
        source + '\nstatic PyMethodDef more[] = {{ "extra", NULL, 0, NULL }};\n'
    ) == KERNEL_METHODS | {"extra"}
    # The parser really sees the static helpers, macro-stamped included,
    # and is not fooled by a prototype or a comment.
    functions = c_functions(source)
    assert {"bits_of", "fold_batch", "fold_dst_W", "fold_src_W"} <= set(functions)
    assert not any(functions[name] for name in ("bits_of", "fold_src_W"))
    # ... the CPU-targeted checksum fold behind its attribute, and the
    # kernels behind their Python wrappers.
    assert not any(functions[name] for name in ("crc32_fold", "crc32_bytes"))
    assert not any(
        functions[name] for name in KERNEL_METHODS | {"py_fold_batch"}
    )
    assert c_exports(
        source + "\nint64_t fold_chunk64(int64_t n);\n/* int64_t f(int n) { } */\n"
    ) == KERNEL_EXPORTS
    commented = source.replace(
        table, table + '    /* {"commented", NULL, 0, NULL}, */\n'
    )
    assert commented != source
    assert c_methods(commented) == KERNEL_METHODS
