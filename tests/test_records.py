"""Immutable records: NamedTuples that behave like value records, not tuples.

Every public tuple class of the package is a record.  Each one must refuse
assignment, print as ``Name(field=value, ...)``, compare and hash by its
fields, and offer no tuple concatenation or repetition; ``+`` and ``*``
work only where the class defines them.
"""

import copy
import pickle

import pytest

from extforge import bgpoly, charts, cli, cobar, milnor, modules, resolution

# record -> the operators it defines itself
RECORDS = {
    "milnor.Profile": "",
    "milnor.MilnorElement": "+",
    "modules.BasisElement": "",
    "modules.PoincareSeries": "+*",
    "modules.SplittingReport": "",
    "modules.BoSequenceReport": "",
    "resolution.Cell": "",
    "resolution.Gen": "",
    "resolution.AttachingRecord": "",
    "resolution.ChartClass": "",
    "resolution.SelfMapSelection": "",
    "resolution.LesReport": "",
    "charts.ChartLayout": "",
    "cobar.Comodule": "",
    "bgpoly.BGPolynomial": "+*",
    "bgpoly.LemmaReport": "",
    "bgpoly.SummandDescriptor": "",
    "cli.Factor": "",
    "cli.DescriptorPlan": "",
}
_MODULES = (milnor, modules, resolution, charts, cobar, bgpoly, cli)


def _record_classes():
    out = {}
    for mod in _MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__:
                if not name.startswith("_"):
                    out[f"{short}.{name}"] = obj
    return out


def _sample(cls):
    """(record, the field values it was built from)."""
    if cls is milnor.Profile:
        return milnor.A2, ((3, 2, 1),)
    if cls is milnor.MilnorElement:
        terms = frozenset([(2, 1), (5,)])
        return milnor.MilnorElement(milnor.A2, terms), (milnor.A2, terms)
    values = tuple(range(len(cls._fields)))
    return cls(*values), values


def test_every_tuple_class_is_a_listed_record():
    assert set(_record_classes()) == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaves_as_a_value(name):
    cls = _record_classes()[name]
    rec, values = _sample(cls)
    # fields the constructor takes, in order; a derived field is not shown
    shown = cls._fields[: len(values)]
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(shown, values)) + ")"
    again = cls(*values)
    assert again == rec and hash(again) == hash(rec)
    assert copy.deepcopy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0
    own = RECORDS[name]
    if "+" not in own:
        with pytest.raises(TypeError):
            rec + rec
    if "*" not in own:
        with pytest.raises(TypeError):
            rec * rec
        with pytest.raises(TypeError):
            rec * 2
    with pytest.raises(TypeError):
        2 * rec


def test_checked_records_check_every_construction():
    with pytest.raises(ValueError, match="must be positive"):
        milnor.Profile((2, 0))
    with pytest.raises(ValueError, match="must be positive"):
        milnor.A2._replace(exponents=(0,))
    assert milnor.Profile([2, 1]).exponents == (2, 1)
    elt = milnor.MilnorElement.sq(milnor.A2, 2, 1)
    assert elt.degree == 5 and milnor.MilnorElement(milnor.A2, frozenset()).degree is None
    with pytest.raises(ValueError, match="mixed degrees"):
        elt._replace(terms=frozenset([(2, 1), (1,)]))
    with pytest.raises(ValueError, match="violates profile"):
        milnor.MilnorElement.sq(milnor.A2, 4)._replace(algebra=milnor.A1)
    # the degree is recomputed, never carried over
    assert elt._replace(terms=frozenset([(1,)])).degree == 1
