"""README examples stay runnable, and README's module notes stay true."""

import importlib
import json
import math
import re
import shlex
from pathlib import Path

from kernelratio.cli import build_parser
from kernelratio.experiment import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def readme_commands():
    """The argument list of every `kernelratio ...` command in README's bash blocks."""
    commands = []
    for block in fenced_blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            found = re.search(r"(?:^|&&)\s*kernelratio\s+([^#]*)", line)
            if found:
                commands.append(shlex.split(found.group(1)))
    return commands


def test_every_readme_command_parses():
    commands = readme_commands()
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_config_loads():
    (block,) = fenced_blocks("json")
    config = ExperimentConfig.from_dict(json.loads(block))
    assert config.seeds == (0, 1, 2)


def test_readme_library_sketch_runs():
    (block,) = fenced_blocks("python")
    names = {}
    exec(block, names)
    assert names["choice"].chosen_lambda in names["grid"].values
    assert math.isfinite(names["err"])


def test_no_module_branches_on_a_loss_family():
    # A family's formulas and facts live in its record in losses._FAMILIES;
    # code reads them there instead of testing which family it holds.
    by_identity = re.compile(r"(\bis (not )?|[=!]= )LossFamily\.")
    family_tuple = re.compile(r"\b[A-Z][A-Z_]*_FAMILIES\b")  # _FAMILIES, the table, has no prefix
    modules = sorted((ROOT / "src" / "kernelratio").glob("*.py"))
    texts = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert [name for name, text in texts.items() if by_identity.search(text)] == []
    assert [name for name, text in texts.items() if family_tuple.search(text)] == []


def test_no_module_drops_a_fit_report():
    # A fit's report says whether it converged; a layer that binds it to _
    # would use an unconverged fit silently.
    dropped = re.compile(r"\w+,\s*_\s*=\s*fit\(")
    modules = sorted((ROOT / "src" / "kernelratio").glob("*.py"))
    assert [path.name for path in modules if dropped.search(path.read_text(encoding="utf-8"))] == []


def test_each_formula_and_field_list_is_written_in_one_module():
    # Written twice, a formula or a reader drifts: kernel alone opens a
    # GramMatrix (gram_values takes a plain array too), data alone spells
    # the pair's fields (the rest read them from the dataclass), and
    # oracle's _integrate alone reports a non-finite integrand, once,
    # oracle's _check_finite_chi2 alone rejects a pair with an infinite
    # E_q[beta^2], once, and balancing's _weights alone checks a curvature
    # weight's sign, once.  solver's fit alone builds a FitReport, once, for
    # both solve paths, and solver's _objective alone writes the objective.
    # kernel alone sets the bound on the pooled sample size, and checks it, once,
    # and balancing alone the bound on the grid's length.  solver's _gradient
    # alone writes the gradient, which CG, objective_and_gradient and every
    # report share, and balancing alone compares a pair's norm with its
    # threshold, so a report's pass flags and its choice cannot disagree.
    # solver's RatioModel alone refuses a model read under another family's
    # loss, and oracle alone bounds the mass of p^2/q outside its interval.
    homes = {
        re.compile(r"\bgram\.values\b"): "kernel.py",
        re.compile(r'"mu_p":'): "data.py",
        re.compile("integrand at node"): "oracle.py",
        re.compile(r"need a finite E_q\[beta\^2\]"): "oracle.py",
        re.compile("curvature weights must be nonnegative"): "balancing.py",
        re.compile(r"\bFitReport\("): "solver.py",
        re.compile(r"0\.5 \* lam \* \(alpha @ margins\)"): "solver.py",
        re.compile(r"\bMAX_POINTS = "): "kernel.py",
        re.compile("points is over the limit of"): "kernel.py",
        re.compile(r"\bMAX_GRID_LENGTH = "): "balancing.py",
        re.compile("values is over the limit of"): "balancing.py",
        re.compile(r"d1 / d1\.shape\[0\] \+ lam \* alpha"): "solver.py",
        re.compile(r"value <= threshold_j"): "balancing.py",
        re.compile(r"model was fitted under \{"): "solver.py",
        re.compile(r"\b_MAX_TRUNCATED_MASS = "): "oracle.py",
        re.compile("of its mass outside the oracle's"): "oracle.py",
    }
    modules = sorted((ROOT / "src" / "kernelratio").glob("*.py"))
    found = [
        f"{path.name}:{lineno}"
        for pattern, home in homes.items()
        for path in modules
        if path.name != home
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
    once = (
        "integrand at node",
        "need a finite E_q[beta^2]",
        "curvature weights must be nonnegative",
        "FitReport(",
        "0.5 * lam * (alpha @ margins)",
        "MAX_POINTS = ",
        "points is over the limit of",
        "MAX_GRID_LENGTH = ",
        "values is over the limit of",
        "d1 / d1.shape[0] + lam * alpha",
        "value <= threshold_j",
        "model was fitted under {",
        "_MAX_TRUNCATED_MASS = ",
        "of its mass outside the oracle's",
    )
    for text in once:
        assert sum(path.read_text(encoding="utf-8").count(text) for path in modules) == 1, text


def readme_module_notes():
    """(module, backticked names in its note) for each entry of README's "Modules:" list."""
    section = README.split("\nModules:\n", 1)[1]
    notes = []
    for line in section.splitlines():
        found = re.match(r"- `(\w+)`: (.*)", line)
        if found:
            notes.append((found.group(1), re.findall(r"`([^`]+)`", found.group(2))))
    return notes


def test_every_name_in_readme_module_notes_resolves_in_its_module():
    notes = readme_module_notes()
    assert [module for module, _ in notes] == [
        "kernel", "losses", "data", "solver", "balancing", "oracle", "experiment", "cli"
    ]
    for module, names in notes:
        for name in names:
            target = importlib.import_module(f"kernelratio.{module}")
            for part in name.removesuffix("()").split("."):
                assert hasattr(target, part), f"README names `{name}` under `{module}`"
                target = getattr(target, part)
