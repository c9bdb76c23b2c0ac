"""Only the harness composes the pipeline: the decoder (``ctc``), the
summarizer (``cts``), the classifier (``lu``) and the corpus generator
(``synth``) import nothing from the package but the shared ``seqcore``
and ``_kernels``. The classifier reaches the BiGRU layer only through
``_kernels.bigru_layer`` and its backward pass, which own the layer's
layout, and within ``_kernels`` the gate equations have one copy,
``_cell``, whose constant 1 (``_ONE``) is read-only, and ``pack`` alone
builds a ``Packing``. The types that skip their checks when built from a
derived value, ``SummarizedSequence`` and ``PosteriorGrid``, are built
without ``__init__`` only by their ``_of_*`` classmethods. The frozen
inputs, ``LatentSequence`` and ``ProjectionMatrix``, are written past
their freeze (``__setattr__``, ``__dict__``, ``vars``) only by their own
``__post_init__``, and no module makes an array writeable again, so the
fields they checked at construction stay as checked. One helper,
``seqcore._parse``, turns a reader's errors into ``FormatError``. And
``seqcore`` alone turns a caller's value into an integer (``_as_int``,
``_label_ids``), so no other module truncates one, and a caller's array
into floats (``_as_reals``), so no other module casts bools or parses
strings."""

import ast
import pathlib

import numpy as np
import pytest

import ctsum
from ctsum import _kernels

PACKAGE = pathlib.Path(ctsum.__file__).parent
ALLOWED = {"seqcore", "_kernels"}


def package_imports(path):
    """The package modules a source file imports, relatively or as ``ctsum``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "ctsum":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ctsum":
                    found.add(parts[1] if len(parts) > 1 else "ctsum")
    return found


@pytest.mark.parametrize("module", ["ctc", "cts", "lu", "synth"])
def test_component_imports_only_shared_modules(module):
    assert package_imports(PACKAGE / f"{module}.py") <= ALLOWED


def test_checker_sees_relative_and_absolute_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy\nfrom . import _kernels, lu\nfrom .ctc import greedy_decode\n"
        "from ctsum.harness import STAGES\nimport ctsum.synth\nfrom .seqcore import Vocabulary\n"
    )
    assert package_imports(src) == {"_kernels", "lu", "ctc", "harness", "synth", "seqcore"}


LU_KERNELS = {"Packing", "pack", "bigru_layer", "bigru_layer_backward"}


def kernel_bindings(tree):
    """The names a syntax tree binds to the ``_kernels`` module, and the
    names it imports from the module, each mapped to the name it imports."""
    aliases, imported = {"_kernels"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] == "_kernels":
                imported.update({alias.asname or alias.name: alias.name for alias in node.names})
            elif module[-1] in ("", "ctsum"):
                aliases.update(a.asname or a.name for a in node.names if a.name == "_kernels")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name.endswith("_kernels"))
    return aliases, imported


def kernel_names(path):
    """The ``_kernels`` names a source file uses: imported from it, or read
    as attributes of the module under any name it is bound to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, imported = kernel_bindings(tree)
    return set(imported.values()) | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases
    }


def test_lu_uses_only_the_layer_kernels():
    assert kernel_names(PACKAGE / "lu.py") <= LU_KERNELS


def test_checker_sees_every_use_of_kernels(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from . import _kernels\nfrom . import _kernels as k\nimport ctsum._kernels\n"
        "from ._kernels import gru_backward\nfrom ctsum._kernels import Packing as P\n"
        "_kernels.pack(xs)\nk.gru_forward(a)\nctsum._kernels.bidirectional\n"
    )
    assert kernel_names(src) == {
        "pack", "gru_forward", "bidirectional", "gru_backward", "Packing"
    }


def nodes_by_function(tree):
    """(function, node) for each node of a syntax tree below the functions
    and classes themselves, in source order; function is the name of the
    innermost function around the node, ``<lambda>`` or ``<module>``, as
    ``Class.name`` inside a class (its methods and the functions nested in
    them)."""
    found = []

    def visit(node, cls, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, function)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                visit(child, cls, f"{cls}.{name}" if cls else name)
                continue
            found.append((function, child))
            visit(child, cls, function)

    visit(tree, None, "<module>")
    return found


def packing_constructions(path):
    """The function around each construction of a ``Packing`` in a source
    file: a call of the class under any name it is imported as or read as
    an attribute, or of its ``_make`` or an instance's ``_replace``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {"Packing"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "Packing"
    }

    def builds(func):
        if isinstance(func, ast.Name):
            return func.id in names
        return isinstance(func, ast.Attribute) and func.attr in {"Packing", "_make", "_replace"}

    return [f for f, node in nodes_by_function(tree) if isinstance(node, ast.Call) and builds(node.func)]


def test_one_function_builds_a_packing():
    # starts and prev are derived from the other fields: a second builder
    # could leave them inconsistent with the layout
    found = {
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in packing_constructions(path)
    }
    assert found == {"_kernels.pack"}


def test_checker_sees_every_construction_of_a_packing(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from ._kernels import Packing as P\nfrom . import _kernels\n"
        "def a(n):\n    return P(n)\n"
        "def b(n):\n    return _kernels.Packing(n)\n"
        "def c(pk):\n    return pk._replace(prev=None)\n"
        "def d(f):\n    return _kernels.Packing._make(f)\n"
        "def e(pk):\n    return pk.rows, isinstance(pk, P), _kernels.pack(pk)\n"
        "Packing(1)\n"
    )
    assert packing_constructions(src) == ["a", "b", "c", "d", "<module>"]


def kernel_uses(path):
    """(function, name) of each use of a ``_kernels`` name in a source
    file, in source order, called or not: read as an attribute of the
    module under any name it is bound to, or by a name imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, imported = kernel_bindings(tree)
    found = []
    for function, node in nodes_by_function(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
            found.append((function, node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append((function, imported[node.id]))
    return found


def test_one_forward_pass_in_lu():
    # inference, training and the gradient check share _forward, so the
    # classifier they run cannot drift apart
    assert kernel_uses(PACKAGE / "lu.py") == [
        ("_forward", "pack"), ("_forward", "bigru_layer"),
        ("_batch_loss_and_grads", "bigru_layer_backward"),
    ]


def test_checker_sees_a_second_forward_pass(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from . import _kernels\nfrom . import _kernels as k\n"
        "from ._kernels import bigru_layer as layer\n"
        "def _forward(model, xs):\n    return _kernels.pack(xs), _kernels.bigru_layer(xs)\n"
        "def _probs(model, xs):\n    pk, x = k.pack(xs)\n    return layer(x, pk)\n"
        "def train(cache):\n    step = _kernels.bigru_layer_backward\n    return step(cache)\n"
        "HEAD = lambda x: _kernels.pack(x)\n"
    )
    assert kernel_uses(src) == [
        ("_forward", "pack"), ("_forward", "bigru_layer"), ("_probs", "pack"),
        ("_probs", "bigru_layer"), ("train", "bigru_layer_backward"), ("<lambda>", "pack"),
    ]


GATE_FUNCTIONS = {"exp", "tanh"}
GATE_MODULES = {"np", "numpy", "math"}


def gate_function_uses(path):
    """(function, name) of each use of ``exp`` or ``tanh`` in a source
    file, in source order: read from numpy or math as an attribute, or
    imported from them by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in GATE_MODULES
        for alias in node.names
        if alias.name in GATE_FUNCTIONS
    }
    found = []
    for function, node in nodes_by_function(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in GATE_FUNCTIONS
            and ast.unparse(node.value) in GATE_MODULES
        ):
            found.append((function, node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append((function, imported[node.id]))
    return found


def test_gate_equations_have_one_copy():
    assert gate_function_uses(PACKAGE / "_kernels.py") == [("_cell", "exp"), ("_cell", "tanh")]


def test_checker_sees_a_second_copy_of_the_cell(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import math\nimport numpy as np\nfrom numpy import tanh as th\n"
        "def _cell(a):\n    return np.exp(a), np.tanh(a)\n"
        "def step_one_row(a):\n    return 1.0 / (1.0 + numpy.exp(-a)), th(a)\n"
        "def scalar(a):\n    f = np.exp\n    return math.tanh(a)\n"
        "SIGMOID = lambda a: 1.0 / (1.0 + np.exp(-a))\nnp.log(2)\n"
    )
    assert gate_function_uses(src) == [
        ("_cell", "exp"), ("_cell", "tanh"), ("step_one_row", "exp"), ("step_one_row", "tanh"),
        ("scalar", "exp"), ("scalar", "tanh"), ("<lambda>", "exp"),
    ]


def test_gate_constant_is_read_only():
    # every GRU step reads it: a write would change every gate silently
    one = _kernels._ONE
    assert (one.shape, one.dtype, float(one)) == ((), np.float64, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        one[...] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(one, one, out=one)


TRUSTED = {"SummarizedSequence", "PosteriorGrid"}


def trusted_constructions(path):
    """(function, class) of each ``__new__`` call on a ``TRUSTED`` class in
    a source file, under any name the class is imported as: called on the
    class, on ``cls`` inside one of its methods, or on ``object`` or
    ``super()`` with it as the argument; function is as
    ``nodes_by_function`` names it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {name: name for name in TRUSTED} | {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in TRUSTED and alias.asname
    }
    found = []
    for function, node in nodes_by_function(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
            target = node.func.value
            if ast.unparse(target) in {"object", "super()"} and node.args:
                target = node.args[0]
            name = ast.unparse(target).rpartition(".")[2]
            cls, in_class, _ = function.partition(".")
            name = cls if name == "cls" and in_class else names.get(name)
            if name in TRUSTED:
                found.append((function, name))
    return found


def test_trusted_types_are_built_unchecked_only_by_their_wrappers():
    # _of_table and _of_softmax wrap values that hold the rules by
    # construction; a __new__ anywhere else would skip the checks on a
    # value that does not
    found = {
        (path.stem, *call)
        for path in sorted(PACKAGE.glob("*.py"))
        for call in trusted_constructions(path)
    }
    assert found == {
        ("cts", "SummarizedSequence._of_table", "SummarizedSequence"),
        ("seqcore", "PosteriorGrid._of_softmax", "PosteriorGrid"),
    }


def test_checker_sees_every_unchecked_construction(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from .cts import SummarizedSequence as S\nfrom . import seqcore\n"
        "class PosteriorGrid:\n    @classmethod\n    def _of_softmax(cls, p):\n"
        "        return cls.__new__(cls)\n"
        "        def again():\n            return cls.__new__(cls)\n"
        "class Other:\n    def make(cls):\n        return cls.__new__(cls)\n"
        "def a():\n    return S.__new__(S)\n"
        "def b():\n    return object.__new__(seqcore.PosteriorGrid)\n"
        "def c():\n    return seqcore.PosteriorGrid.__new__(seqcore.PosteriorGrid)\n"
        "TRUST = lambda: super().__new__(S)\n"
    )
    assert trusted_constructions(src) == [
        ("PosteriorGrid._of_softmax", "PosteriorGrid"), ("PosteriorGrid.again", "PosteriorGrid"),
        ("a", "SummarizedSequence"), ("b", "PosteriorGrid"), ("c", "PosteriorGrid"),
        ("<lambda>", "SummarizedSequence"),
    ]


BYPASSES = {"__setattr__", "__dict__"}


def freeze_bypasses(path):
    """The function around each use in a source file of what writes a
    field past a frozen dataclass's ``__setattr__``: a ``__setattr__`` or
    ``__dict__`` attribute on any receiver (``object``, ``super()``, an
    instance), called or not, or a call of ``vars``."""
    return [
        function
        for function, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in BYPASSES)
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars")
    ]


def test_frozen_inputs_set_their_fields_only_at_construction():
    # the softmax, the summarizer and the .lseq writer use their fields
    # unchecked: a write past the freeze anywhere else could break them
    found = {
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in freeze_bypasses(path)
    }
    assert found == {"seqcore.LatentSequence.__post_init__", "seqcore.ProjectionMatrix.__post_init__"}


def test_checker_sees_every_write_past_a_freeze(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class LatentSequence:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'frames', 1)\n"
        "        def inner():\n            return vars(self)\n"
        "def a(seq):\n    seq.__dict__['frames'] = 0\n"
        "def b(seq):\n    put = super().__setattr__\n    put('frames', 0)\n"
        "c = lambda seq: type(seq).__setattr__(seq, 'bias', 0)\n"
        "setattr(seq, 'frames', 0)\n"
    )
    assert freeze_bypasses(src) == [
        "LatentSequence.__post_init__", "LatentSequence.inner", "a", "b", "<lambda>"
    ]


def writeable_grants(path):
    """The lines of a source file that may make an array writeable: an
    assignment of anything but ``False`` to a ``writeable`` attribute or to
    ``flags["WRITEABLE"]`` or ``flags["W"]``, or a ``setflags`` call whose
    ``write`` argument is anything but ``False``."""

    def names_the_flag(target):
        if isinstance(target, ast.Attribute):
            return target.attr == "writeable"
        return isinstance(target, ast.Subscript) and ast.unparse(target.slice) in {"'WRITEABLE'", "'W'"}

    def grants(value):
        return not (isinstance(value, ast.Constant) and value.value is False)

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            flag = any(names_the_flag(n) for t in targets for n in ast.walk(t))
            hit = flag and grants(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags":
            write = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "write"]
            hit = any(grants(w) for w in write)
        else:
            continue
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_no_module_makes_an_array_writeable():
    # the frozen inputs' arrays, and _kernels._ONE, are read-only
    found = {
        (path.stem, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in writeable_grants(path)
    }
    assert found == set()


def test_checker_sees_every_writeable_grant(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "a.flags.writeable = True\nseq.frames.flags['WRITEABLE'] = 1\n"
        "a.setflags(write=True)\na.setflags(True)\nf = a.flags\nf.writeable = flag\n"
        "a.flags.writeable, b = True, 1\n"
        "a.flags.writeable = False\na.setflags(write=False)\na.setflags(align=True)\n"
        "writeable = True\n"
    )
    assert writeable_grants(src) == [1, 2, 3, 4, 6, 7]


def format_error_handlers(path):
    """The function around each ``except`` handler in a source file whose
    body raises ``FormatError``."""

    def raises_format_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == "FormatError"

    return [
        function
        for function, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler)
        and any(
            isinstance(n, ast.Raise) and n.exc is not None and raises_format_error(n)
            for n in ast.walk(node)
        )
    ]


def test_one_helper_turns_errors_into_format_error():
    found = [
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in format_error_handlers(path)
    ]
    assert found == ["seqcore._parse"]


def test_checker_sees_every_form_of_the_raise(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def a():\n    try:\n        f()\n    except ValueError as e:\n"
        "        raise FormatError(str(e)) from e\n"
        "def b():\n    try:\n        f()\n    except KeyError:\n"
        "        if x:\n            raise seqcore.FormatError\n"
        "def c():\n    try:\n        f()\n    except KeyError:\n        raise ValueError()\n"
        "    raise FormatError('not in a handler')\n"
    )
    assert format_error_handlers(src) == ["a", "b"]


INTEGER_DTYPES = {"np.int64", "numpy.int64", "'int64'", "int"}
CONVERTERS = {
    f"{module}.{name}" for module in ("np", "numpy") for name in ("asarray", "array", "ascontiguousarray")
}


def integer_conversions(path):
    """The lines of a source file that turn a value into an integer
    themselves: ``operator.index``, an ``isinstance(..., bool)`` test, or an
    int64 dtype passed to ``np.asarray``, ``np.array``,
    ``np.ascontiguousarray`` or ``.astype``. Allocations do not count."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            hit = any(alias.name == "index" for alias in node.names)
        elif not isinstance(node, ast.Call):
            continue
        elif (func := ast.unparse(node.func)) == "operator.index":
            hit = True
        elif func == "isinstance" and len(node.args) == 2:
            hit = any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))
        else:
            hit = not INTEGER_DTYPES.isdisjoint(dtype_arguments(node, astype=True))
        if hit:
            found.append(node.lineno)
    return sorted(found)


def dtype_arguments(call, astype=False):
    """The dtypes, as source text, that a call passes to ``np.asarray``,
    ``np.array`` or ``np.ascontiguousarray`` (with ``astype``, to
    ``.astype`` too); none for any other call."""
    if ast.unparse(call.func) in CONVERTERS:
        dtypes = call.args[1:2]
    elif astype and isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
        dtypes = call.args[:1]
    else:
        return set()
    return {ast.unparse(d) for d in dtypes + [kw.value for kw in call.keywords if kw.arg == "dtype"]}


@pytest.mark.parametrize("module", ["ctc", "cts", "lu", "synth", "harness", "cli"])
def test_only_seqcore_turns_values_into_integers(module):
    assert integer_conversions(PACKAGE / f"{module}.py") == []


def test_checker_sees_every_integer_conversion(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import operator\nfrom operator import index\noperator.index(v)\n"
        "isinstance(v, bool)\nisinstance(v, (int, bool))\nnp.asarray(x, dtype=np.int64)\n"
        "np.array(x, np.int64)\nnumpy.ascontiguousarray(x, dtype='int64')\n"
        "x.astype(np.int64)\nx.astype(dtype=int, copy=False)\n"
        "np.empty(3, dtype=np.int64)\nnp.full(3, 0, np.int64)\nisinstance(v, int)\n"
        "x.astype(np.float64)\nnp.asarray(x, dtype=np.float32)\n"
    )
    assert integer_conversions(src) == list(range(2, 11))


FLOAT_DTYPES = {
    f"{m}.{t}" for m in ("np", "numpy") for t in ("float64", "float32", "float16", "double")
} | {"float", "'float64'", "'float32'", "'f8'", "'f4'", "'<f8'", "'<f4'", "'d'", "'f'"}


def float_conversions(path):
    """The lines of a source file that turn a value into floats themselves:
    a float dtype passed to ``np.asarray``, ``np.array`` or
    ``np.ascontiguousarray``. ``.astype`` of arrays the module made (file
    bytes, float32 frames) and allocations do not count."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and not FLOAT_DTYPES.isdisjoint(dtype_arguments(node))
    )


@pytest.mark.parametrize("module", ["ctc", "cts", "lu", "synth", "harness", "cli"])
def test_only_seqcore_turns_arrays_into_floats(module):
    # seqcore._as_reals refuses bool, complex, string and object arrays
    assert float_conversions(PACKAGE / f"{module}.py") == []


def test_checker_sees_every_float_conversion(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "np.asarray(x, dtype=np.float64)\nnp.array(x, np.float32)\n"
        "numpy.ascontiguousarray(x, dtype='f4')\nnp.asarray(x, float)\n"
        "x.astype(np.float64)\nnp.empty(3, dtype=np.float64)\nnp.asarray(x)\n"
        "np.asarray(x, dtype=np.int64)\n_as_reals('x', x, np.float64)\n"
    )
    assert float_conversions(src) == [1, 2, 3, 4]
