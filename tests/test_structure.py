"""One implementation per mechanism, checked on the package's syntax trees.

The reservoir skip is defined in exactrand.py and called at one site of
reservoir.py alone, the bank's one replacement loop, where a bank seeds one
generator for all its units and keeps no refcounts, every per-coordinate
update is a batch of one for the class's ingest loop, `.random(` is
called only by the CLI's stream generator, which draws floats on purpose,
so every random choice of a sampler goes through a primitive that the
branch enumerator forks,
interval-refined Bernoulli draws are run only by the exact increment test
(gsampler.accept_increment) and by exactrand itself, and every sampler of a
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
no hand-written random-order law is left.  The sliding L_p sampler runs on
the checkpoint banks, with no suffix-minimum structure.  Every
L_p sampler takes its zeta from one rule, gsampler.lp_zeta, and no
degraded-estimate path or hand-written sliding law is left.  The multipass samplers read
the stream at one site, the scan that every chain and the Z narrowing share.
z_bound and F0State.draw cost O(1) in the counters and the subset: neither
loops over them."""

import ast
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
                              ("smoothhist.py", "SmoothHistogram", "ingest"),
                              ("heavyhitters.py", "MGSummary", "extend")):
        node = next(n for n in trees[module].body if isinstance(n, ast.ClassDef) and n.name == cls)
        assert loop in set(_called(_function(node, "update"))), (cls, loop)
    updaters = {(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                and any(isinstance(f, ast.FunctionDef) and f.name == "update" for f in node.body)}
    assert updaters == {("core.py", "UnitUpdates"), ("reservoir.py", "SamplerBank"),
                        ("f0sampler.py", "F0State"), ("smoothhist.py", "SmoothHistogram"),
                        ("smoothhist.py", "ExactSuffixFp"), ("heavyhitters.py", "MGSummary"),
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
    # and no hand-written random-order law, Monte-Carlo twin of a sampler or
    # float evaluation of G is left.  The package is the modules below, G is
    # evaluated by g_exact and g_bounds alone, and the one target law is the
    # exact one.
    trees = _trees()
    assert set(trees) == MODULES, set(trees) ^ MODULES
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not {"pair_l2_law", "block_lp_law", "_arrangements"} & defined
    assert not [name for name in defined if name.startswith("mc_")]
    assert {name for name in defined if name.startswith("g_")} == {"g_exact", "g_bounds"}
    assert {name for name in defined if name.startswith("target_")} == {"target_distribution"}
    for module, cls, knobs in (("gsampler.py", "GSampler", {"zeta", "p", "C"}),
                               ("sliding.py", "CheckpointedSampler", {"zeta", "C"}),
                               ("randomorder.py", "PairL2Sampler", {"zeta", "C"}),
                               ("randomorder.py", "BlockLpSampler", {"zeta", "C"})):
        assert not _init_params(trees[module], cls) & knobs, cls


def test_float_uniforms_only_outside_the_samplers():
    callers = {name for name, tree in _trees().items() if "random" in set(_called(tree))}
    assert callers <= {"cli.py"}, callers


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
    # The irrational acceptance test runs on scaled integers end to end.
    trees = _trees()
    for module, name in (("exactrand.py", "bernoulli_bounds"), ("gsampler.py", "accept_increment")):
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
    # F0State keeps S & support between draws; draw(self, S, rng) reads it
    # from the state (which rescans only when |S| or more changes are
    # pending) and never loops over S itself.
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
