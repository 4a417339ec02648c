"""One implementation per mechanism, checked on the package's syntax trees.

The reservoir skip is defined in exactrand.py and called at one site of
reservoir.py alone, the bank's one replacement loop, where a bank seeds one
generator for all its units and keeps no refcounts, every per-coordinate
update is a batch of one for the class's ingest loop, `.random(` is
called only by the CLI's stream generator, which draws floats on purpose,
so every random choice of a sampler goes through a primitive that the
branch enumerator forks,
interval-refined Bernoulli draws are run only by the exact increment test
(gsampler.accept_increment) and by exactrand itself, the exact acceptance
draws take no Fraction, every draw walks its repetitions in the one
accept-and-pick loop (gsampler.accept_and_pick), and every sampler of a
unit-delta stream shares one process(), with MatrixSampler's (row, col) form
the only other one.  Float binomials, exponentials and hypergeometrics are
drawn only by smallp, which is approximate by design; BlockLpSampler draws
exactrand's exact binomial.  Importing the package or its CLI loads neither
numpy nor scipy, and neither does running the block sampler or the
exact-only verify battery: no module of the package imports either, even
inside a function.  The tests' chi-square report and numpy generator
(gof_test, GofReport, np_substream) live under tests/, and the bench
command (cmd_bench) is gone.  No Monte-Carlo twin of a
sampler and no float evaluation of G is left, and no module keeps a
module-level import it does not use.  Importing the package loads neither
hashlib's OpenSSL module, nor dataclasses, nor the enumerator, which loads
on first use of its names.  No sampler constructor takes a zeta, exponent or
cap-constant override, so the exact-law checks run the zeta that ships, and
no hand-written random-order law or telescoping coefficients are left.
The verifier reads no private attribute of a sampler: it derives each
zeta from the input, and a draw's zeta is one value, with no read-back or
two-slot form of it left.  The sliding L_p sampler runs on
the checkpoint banks, with no suffix-minimum structure.  Every
L_p sampler takes its zeta from one rule, gsampler.lp_zeta, and no
degraded-estimate path or hand-written sliding law is left.  The multipass samplers read
the stream at one site, the scan that every chain and the Z narrowing share.
z_bound and F0State.draw cost O(1) in the counters and the subset: neither
loops over them.  No module calls random.sample: F0State draws its subsets
with exactrand.uniform_subset, once, at construction.  Every function and
method that perfbench's layer tracer wraps by name is in the package, with
the call shape its wrapper passes on."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import exactsamp

PACKAGE = pathlib.Path(exactsamp.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names(tree):
    """Every identifier the module refers to: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def _called(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            yield f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _defines(tree, name):
    """Whether the module defines function `name` at its top level."""
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)


def test_reservoir_skip_only_in_reservoir():
    trees = _trees()
    assert [name for name, tree in trees.items() if _defines(tree, "skip")] == ["exactrand.py"]
    callers = [name for name, tree in trees.items() if "skip" in set(_called(tree))]
    assert callers == ["reservoir.py"], callers
    assert not any("_next_jump" in set(_names(tree)) for tree in trees.values())


def test_bank_has_one_replacement_loop_and_no_refcounts():
    # extend() is the bank's only update loop: skip is called at one site of
    # reservoir.py, and no refcount of the held coordinates is kept.
    tree = _trees()["reservoir.py"]
    assert list(_called(tree)).count("skip") == 1
    bank = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "SamplerBank")
    assert "refs" not in set(_names(bank))


def test_per_coordinate_updates_feed_the_batch_loops():
    # A per-coordinate update is a batch of one: the structures' update()
    # calls their extend() or ingest(), and the samplers of unit-delta
    # streams inherit core.UnitUpdates.update.
    trees = _trees()
    for module, cls, loop in (("reservoir.py", "SamplerBank", "extend"),
                              ("f0sampler.py", "F0State", "extend"),
                              ("smoothhist.py", "WindowCounter", "ingest"),
                              ("heavyhitters.py", "MGSummary", "extend")):
        node = next(n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls)
        assert loop in set(_called(_function(node, "update"))), (cls, loop)
    updaters = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "update" for f in node.body)}
    assert updaters == {("core.py", "UnitUpdates"), ("reservoir.py", "SamplerBank"),
                        ("f0sampler.py", "F0State"), ("smoothhist.py", "WindowCounter"),
                        ("heavyhitters.py", "MGSummary"),
                        ("matrixsampler.py", "MatrixSampler")}, updaters


def test_reservoir_seeds_one_generator_per_bank():
    # A bank draws every unit's skips from one generator: substream is called
    # at a single site, outside any loop or comprehension, and the due units
    # live in chains rather than a heap of tuples.
    tree = _trees()["reservoir.py"]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    sites = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "substream"]
    assert len(sites) == 1, len(sites)
    in_loop = {id(call) for loop in ast.walk(tree) if isinstance(loop, loops)
               for call in ast.walk(loop)}
    assert id(sites[0]) not in in_loop
    assert "heapq" not in set(_names(tree))


def test_sliding_lp_runs_on_the_checkpoint_banks():
    # One reservoir mechanism: no module keeps a second suffix-sampling
    # structure.
    trees = _trees()
    classes = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "SuffixMinima"]
    assert not classes, classes


def _identifiers(tree):
    """_names plus the names the module defines and its parameters."""
    yield from _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


def test_one_lp_zeta_rule():
    # zeta = p Z^{p-1} has one definition; the sliding and multipass samplers
    # import it, and sliding.py computes no power of its own.
    trees = _trees()
    defs = [name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "lp_zeta"]
    assert defs == ["gsampler.py"], defs
    for module in ("sliding.py", "multipass.py"):
        imported = {alias.name for node in ast.walk(trees[module])
                    if isinstance(node, ast.ImportFrom) and node.module == "gsampler"
                    for alias in node.names}
        assert "lp_zeta" in imported, module
    gone = {"DegradedEstimate", "estimator_factory", "fp_bounds", "sw_lp_law"}
    named = {name: gone & set(_identifiers(tree)) for name, tree in trees.items()}
    assert not any(named.values()), named
    assert not {"pow_scaled", "pow_exact"} & set(_names(trees["sliding.py"]))


def _init_params(tree, cls):
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    init = _function(node, "__init__")
    return {arg.arg for arg in init.args.args + init.args.kwonlyargs}


MODULES = {"__init__.py", "cli.py", "core.py", "exactrand.py", "f0sampler.py", "gsampler.py",
           "heavyhitters.py", "matrixsampler.py", "multipass.py", "oracle.py", "randomorder.py",
           "reservoir.py", "sliding.py", "smallp.py", "smoothhist.py", "verify.py"}


def test_override_knobs_and_law_mirrors_stay_removed():
    # The exact-law checks run the shipped classes at the zeta they ship
    # with: no constructor takes a zeta, exponent or cap-constant override,
    # and no hand-written random-order law or telescoping coefficients,
    # Monte-Carlo twin of a sampler or float evaluation of G is left.  The package is the modules below, G is
    # evaluated by g_exact and g_bounds alone, and the one target law is the
    # exact one.
    trees = _trees()
    assert set(trees) == MODULES, set(trees) ^ MODULES
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not {"pair_l2_law", "block_lp_law", "_arrangements", "gsampler_coefficients",
                "matrix_coefficients", "_strict_after_counts"} & defined
    assert not [name for name in defined if name.startswith("mc_")]
    assert {name for name in defined if name.startswith("g_")} == {"g_exact", "g_bounds"}
    assert {name for name in defined if name.startswith("target_")} == {"target_distribution"}
    for module, cls, knobs in (("gsampler.py", "GSampler", {"zeta", "p", "C"}),
                               ("sliding.py", "CheckpointedSampler", {"zeta", "C"}),
                               ("randomorder.py", "PairL2Sampler", {"zeta", "C"}),
                               ("randomorder.py", "BlockLpSampler", {"zeta", "C"})):
        assert not _init_params(trees[module], cls) & knobs, cls
    # The verifier derives every zeta from the input and reads nothing
    # private of a sampler, and a draw's zeta is one value, an integer pair
    # or a bracket, with no read-back or two-slot form left for it.
    private = {node.attr for node in ast.walk(trees["verify.py"])
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")}
    assert not private, private
    gone = {"fraction_zeta", "_zeta_at_draw", "first_accepted", "root_bounds", "pow_bounds",
            "zeta_exact", "zeta_bounds"}
    named = {name: gone & set(_identifiers(tree)) for name, tree in trees.items()}
    assert not any(named.values()), named


def test_float_uniforms_only_outside_the_samplers():
    callers = {name for name, tree in _trees().items() if "random" in set(_called(tree))}
    assert callers <= {"cli.py"}, callers


def test_subsets_come_from_uniform_subset_alone():
    # No module calls random.sample, so the enumerator forks no ordered
    # picks and keeps no sample() of its own; F0State draws each instance's
    # subset once, at construction, and keeps no join/leave log, late
    # registration or second copy of the counts.
    trees = _trees()
    callers = {name for name, tree in trees.items() if "sample" in set(_called(tree))}
    assert not callers, callers
    forking = next(node for node in ast.walk(trees["oracle.py"])
                   if isinstance(node, ast.ClassDef) and node.name == "_ForkingRandom")
    assert "sample" not in {f.name for f in forking.body if isinstance(f, ast.FunctionDef)}
    state = next(node for node in trees["f0sampler.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "F0State")
    assert {"update", "draw"} <= {f.name for f in state.body if isinstance(f, ast.FunctionDef)}
    assert not {"_log", "_leaves", "_changes", "_record", "_current_members", "subset",
                "active_frequencies"} & set(_names(trees["f0sampler.py"]))
    assert "uniform_subset" in set(_called(state))


def _imported_from(tree, module):
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


def test_float_draws_only_in_the_approximate_samplers():
    # Float binomials, exponentials and hypergeometrics -- generator methods
    # such as numpy's .binomial(, or bare calls -- are drawn by smallp
    # (approximate by design), and by no other module.  The one exception is
    # a bare binomial( that is exactrand's exact one, defined there or
    # imported from it.
    draws = {"binomial", "exponential", "expovariate", "multivariate_hypergeometric"}
    approximate = {"smallp.py"}
    trees = _trees()
    called = {name: [(isinstance(node.func, ast.Attribute), getattr(node.func, "attr", None)
                      or getattr(node.func, "id", None))
                     for node in ast.walk(tree) if isinstance(node, ast.Call)]
              for name, tree in trees.items()}
    float_draws = {name for name, calls in called.items()
                   if any(draw in draws and (method or draw != "binomial")
                          for method, draw in calls)}
    assert float_draws <= approximate, float_draws
    bare = {name for name, calls in called.items() if (False, "binomial") in calls}
    exact = {name for name, tree in trees.items()
             if _defines(tree, "binomial") or "binomial" in _imported_from(tree, "exactrand")}
    assert bare <= exact and "randomorder.py" in bare, (bare, exact)
    assert [name for name, tree in trees.items() if _defines(tree, "binomial")] == ["exactrand.py"]


def test_package_and_cli_import_no_numpy():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import exactsamp, exactsamp.cli, sys; "
            "loaded = {'numpy', 'scipy'} & set(sys.modules); assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_package_import_loads_only_the_samplers():
    # Importing the package loads no OpenSSL hashlib, no dataclasses and no
    # enumerator; the enumerator's names load it on first use, and
    # `from exactsamp import *` still binds every name of __all__.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import exactsamp\n"
            "added = set(sys.modules) - before\n"
            "loaded = {'hashlib', '_hashlib', 'dataclasses', 'exactsamp.oracle'} & added\n"
            "assert not loaded, loaded\n"
            "assert exactsamp.enumerate_law.__module__ == 'exactsamp.oracle'\n"
            "assert 'exactsamp.oracle' in sys.modules\n"
            "names = {}\n"
            "exec('from exactsamp import *', names)\n"
            "assert set(exactsamp.__all__) <= set(names), set(exactsamp.__all__) - set(names)\n"
            "assert names['ExactDistribution'] is sys.modules['exactsamp.oracle'].ExactDistribution\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_block_sampler_and_its_cli_load_no_numpy(tmp_path):
    # BlockLpSampler draws only from its stdlib substream: building, feeding
    # and drawing it, and `exactsamp sample --sampler block`, import no numpy.
    stream = str(tmp_path / "u.jsonl")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys\n"
            "from exactsamp import BlockLpSampler\n"
            "from exactsamp.cli import main\n"
            "s = BlockLpSampler(7, 100, 3, seed=1)\n"
            "s.process([t % 7 + 1 for t in range(400)])\n"
            "assert s.draw().outcome in ('index', 'fail')\n"
            "assert main(['generate', '--kind', 'uniform', '--n', '7', '--m', '400',\n"
            "             '--out', sys.argv[1]]) == 0\n"
            "assert main(['sample', '--stream', sys.argv[1], '--sampler', 'block',\n"
            "             '--p', '3', '--trials', '3']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n")
    subprocess.run([sys.executable, "-c", code, stream], env=env, check=True, timeout=120)


def test_verify_cli_loads_no_numpy(tmp_path):
    # The verify battery is exact: `exactsamp verify --out ...` passes and
    # imports neither numpy nor scipy.
    out = str(tmp_path / "reports.json")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys\n"
            "from exactsamp.cli import main\n"
            "assert main(['verify', '--out', sys.argv[1]]) == 0\n"
            "loaded = {'numpy', 'scipy'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code, out], env=env, check=True, timeout=120)


def test_package_imports_no_numpy_or_scipy_and_ships_no_test_helpers():
    # No module imports numpy or scipy, at module level or inside a function,
    # and the tests' statistical helpers and the retired bench command stay
    # out of the package.
    trees = _trees()
    imported = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            roots = {module.split(".")[0] for module in modules} & {"numpy", "scipy"}
            if roots:
                imported.setdefault(name, set()).update(roots)
    assert not imported, imported
    helpers = {"gof_test", "GofReport", "np_substream", "cmd_bench"}
    defined = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in helpers}
    assert not defined, defined


def _module_imports(tree):
    """(name bound, line) of each import outside every function and class."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0], node.lineno
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _exported(tree):
    """The names listed in the module's __all__."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_no_unused_module_level_imports():
    # Every name a module imports at module level is read somewhere in it,
    # or re-exported through __all__.
    unused = {}
    for module, tree in _trees().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= _exported(tree)
        names = sorted((line, name) for name, line in _module_imports(tree) if name not in read)
        if names:
            unused[module] = names
    assert not unused, unused


def test_interval_bernoulli_only_in_the_exact_increment_test():
    callers = {name for name, tree in _trees().items() if "bernoulli_bounds" in set(_called(tree))}
    assert callers <= {"exactrand.py", "gsampler.py"}, callers


def test_one_shared_process():
    defs = [name for name, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "process"]
    assert len(defs) <= 2, defs


def test_multipass_reads_the_stream_at_one_site():
    trees = _trees()
    assert list(_called(trees["multipass.py"])).count("updates") == 1
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "_parallel_l1_chains" not in defined


def test_exact_acceptance_loops_take_no_fraction():
    # The irrational acceptance test runs on scaled integers end to end, and
    # the rational one on integer pairs.
    trees = _trees()
    for module, name in (("exactrand.py", "bernoulli_bounds"), ("exactrand.py", "bernoulli_ratio"),
                         ("gsampler.py", "accept_increment"),
                         ("gsampler.py", "accept_and_pick")):
        fn = next(node for node in ast.walk(trees[module])
                  if isinstance(node, ast.FunctionDef) and node.name == name)
        assert "Fraction" not in set(_names(fn)), name


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_z_bound_scans_no_counters():
    fn = _function(_trees()["heavyhitters.py"], "z_bound")
    assert not any(isinstance(node, LOOPS) for node in ast.walk(fn))


def test_f0_draw_does_not_iterate_its_subset():
    # F0State keeps S & support as coordinates join and leave the support;
    # draw(self, k, rng) reads instance k's from the state and never loops
    # over the instance's subset.
    state = next(node for node in _trees()["f0sampler.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "F0State")
    fn = _function(state, "draw")
    subset = fn.args.args[1].arg
    loops = (ast.For, ast.comprehension)
    iterated = [node.iter for node in ast.walk(fn) if isinstance(node, loops)]
    assert not any(isinstance(it, ast.Name) and it.id == subset for it in iterated)
    copies = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) in ("sorted", "list", "set", "tuple")
              and any(isinstance(a, ast.Name) and a.id == subset for a in node.args)]
    assert not copies


DRAW_SITES = [("gsampler.py", "GSampler"), ("sliding.py", "CheckpointedSampler"),
              ("matrixsampler.py", "MatrixSampler"), ("f0sampler.py", "F0Sampler"),
              ("multipass.py", None)]


def test_one_accept_and_pick_loop():
    # gsampler.accept_and_pick is the one loop over repetitions that tests
    # and picks; every draw calls it and loops over nothing itself.
    trees = _trees()
    defs = [name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "accept_and_pick"]
    assert defs == ["gsampler.py"], defs
    for module, cls in DRAW_SITES:
        tree = trees[module]
        if cls is None:
            fn = _function(tree, "multipass_lp_draw")
        else:
            klass = next(node for node in tree.body
                         if isinstance(node, ast.ClassDef) and node.name == cls)
            fn = _function(klass, "draw")
        assert "accept_and_pick" in set(_called(fn)), (module, cls)
        assert not any(isinstance(node, LOOPS) for node in ast.walk(fn)), (module, cls)


def _layertrace():
    """perfbench's layer tracer, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_in_the_package():
    # `run.py --trace 1` wraps each traced name where the package binds it.
    # Every name must be there, as a function, and a special wrapper calls
    # its function with the arguments of its own named parameters (e.g.
    # bernoulli_fraction(q, rng)), then any it passes on, which the function
    # must take.
    lt = _layertrace()
    tracer = lt.Tracer()
    assert set(lt.Tracer.SPECIAL) <= {attr for _, attr in lt.FUNCTIONS}
    for mod, attr in lt.FUNCTIONS:
        fn = getattr(importlib.import_module("exactsamp." + mod), attr, None)
        assert inspect.isfunction(fn), (mod, attr)
        special = lt.Tracer.SPECIAL.get(attr)
        if special is not None:
            wrapper = getattr(tracer, special)("%s.%s" % (mod, attr), fn)
            params = inspect.signature(wrapper).parameters.values()
            shape = [object() for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
            if any(p.kind is p.VAR_POSITIONAL for p in params):
                inspect.signature(fn).bind_partial(*shape)  # and the rest passed on
            else:
                inspect.signature(fn).bind(*shape)
    for mod, cls, attr in lt.METHODS:
        klass = getattr(importlib.import_module("exactsamp." + mod), cls, None)
        assert isinstance(klass, type), (mod, cls)
        assert inspect.isfunction(vars(klass).get(attr)), (mod, cls, attr)
