"""The argument contract: every well-typed call returns or raises MatkitError.

One table row per exported callable that takes a count, size or dims tuple,
an order, seed or subscript, a selector, reps or max_sweeps, or a scalar
operand; and one per scan, metric and reduction caller (dot, rgb2gray,
distance_matrix, nearest_neighbor, replace_neg_nan), which take arrays and
a variant, strategy or metric; and one per PNM codec: encode_pnm takes an
Image of arrays(), and decode_pnm a P2/P3/P5/P6 header whose width, height
and maxval are VALUES rendered as text, then a short raster (binary, or
ASCII samples that are VALUES too). Sizes 1 and 2 and maxval 255 are drawn
as well, so that rasters get read. Each row draws those arguments from
VALUES (and dims tuples of them), its variant, strategy or metric from the
valid ones, and its arrays from arrays(): empty, 1xn, nx1 or 3-D, holding
NaN, inf and -0. Function handles are always well behaved. Wrong-class
arguments (a list where a NumArray belongs, a BoolMask as an operand, a
handle that cannot be called) are outside the contract, as the README says,
and are not drawn; the one exception is the optional basis of dct2d and
idct2d, drawn from VALUES as well, since those refuse a basis of any other
class.

The one large value is at least 2**62: any size built from it is at least
2**62 elements of 8 bytes, which numpy refuses before it allocates anything.
No value in between (such as 2**30) is drawn, since the host might grant it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import matkit as mk
from matkit import ALL, END, IndexExpr, MatkitError

VALUES = (0, 1, 3, -3, 1.5, math.nan, math.inf, -math.inf, True, "2", None, 2**62, 10**400)

value = st.sampled_from(VALUES)
dims = st.one_of(st.tuples(value, value), st.tuples(value, value, value))

_SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (1, 3), (3, 1), (2, 1, 3), (2, 2, 3))
_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
)


@st.composite
def arrays(draw):
    shape = draw(st.sampled_from(_SHAPES))
    n = math.prod(shape)
    return mk.NumArray(shape, draw(st.lists(_ENTRIES, min_size=n, max_size=n)))


def _add(x, y):
    return x + y  # float addition never raises: inf - inf is NaN


def _ones():
    return mk.ones((1, 1))


def _repelems(d):
    a = d(arrays())
    return mk.repelems(a, [d(value) for _ in range(a.numel)])


def _eig_sym(d):
    s = d(st.one_of(arrays(), st.just(mk.from_rows([[2, 1], [1, 2]]))))
    return mk.eig_sym(s, d(value))


def _logical_assign(d):
    a = d(arrays())
    return mk.logical_assign(a, a > 0, d(value))


def _scan(fn):
    return lambda d: fn(d(arrays()), d(st.sampled_from(["loop", "vectorized"])))


def _nearest_neighbor(d):
    metric = d(st.sampled_from([mk.metric_euclidean, mk.metric_manhattan]))
    return mk.nearest_neighbor(d(arrays()), d(arrays()), metric)


def _span(d):
    end = st.one_of(value, value.map(lambda k: END - k))
    return mk.extract(d(arrays()), IndexExpr.linear(mk.span(d(end), d(end), d(value))))


def _dct(fn):
    # x itself is one basis whose dims match, with its NaN, inf and -0
    def row(d):
        x = d(arrays())
        return fn(x, d(st.one_of(st.none(), st.just(x), arrays(), value)))

    return row


def _text(v):
    return str(v).encode()


def _decode_pnm(d):
    kind = d(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    size = st.one_of(value, st.sampled_from([1, 2]))
    width, height = _text(d(size)), _text(d(size))
    maxval = _text(d(st.one_of(value, st.just(255))))
    sample = st.one_of(value, st.sampled_from([255, 256]))
    raster = d(st.one_of(
        st.binary(max_size=12),
        st.lists(sample.map(_text), max_size=12).map(b" ".join),
    ))
    return mk.decode_pnm(kind + b"\n" + width + b" " + height + b"\n" + maxval + b"\n" + raster)


ROWS = {
    "zeros": lambda d: mk.zeros(d(dims)),
    "ones": lambda d: mk.ones(d(dims)),
    "full": lambda d: mk.full(d(dims), d(value)),
    "colon_range": lambda d: mk.colon_range(d(value), d(value), d(value)),
    "magic": lambda d: mk.magic(d(value)),
    "from_rows": lambda d: mk.from_rows(d(st.lists(
        st.one_of(value, st.lists(value, max_size=3)), min_size=1, max_size=3
    ))),
    "reshape": lambda d: mk.reshape(d(arrays()), d(dims)),
    "permute": lambda d: mk.permute(d(arrays()), (d(value), d(value), d(value))),
    "ipermute": lambda d: mk.ipermute(d(arrays()), (d(value), d(value))),
    "broadcast_shapes": lambda d: mk.broadcast_shapes(d(dims), d(dims)),
    "sub2ind": lambda d: mk.sub2ind(d(dims), (d(value), d(value))),
    "ind2sub": lambda d: mk.ind2sub(d(dims), d(value)),
    "NumArray.at": lambda d: d(arrays()).at(d(value)),
    "cat": lambda d: mk.cat(d(value), [d(arrays()), d(arrays())]),
    "repmat": lambda d: mk.repmat(d(arrays()), d(value), d(value)),
    "repelems": _repelems,
    "circshift": lambda d: mk.circshift(d(arrays()), d(value), d(value)),
    "sort_along_dim": lambda d: mk.sort_along_dim(d(arrays()), d(value)),
    "diff_adjacent": lambda d: mk.diff_adjacent(d(arrays()), d(value)),
    "span": _span,
    "extract": lambda d: mk.extract(d(arrays()), IndexExpr.of(d(value), ALL)),
    "NumArray.__getitem__": lambda d: d(arrays())[d(value)],
    "assign_indexed": lambda d: mk.assign_indexed(
        d(arrays()), IndexExpr.linear(d(value)), d(value)
    ),
    "delete_elements": lambda d: mk.delete_elements(d(arrays()), IndexExpr.linear(d(value))),
    "logical_assign": _logical_assign,
    "ew_binary": lambda d: mk.ew_binary(d(st.sampled_from("+-*/^")), d(arrays()), d(value)),
    "compare": lambda d: mk.compare(d(st.sampled_from(["<", "==", "!="])), d(value), d(arrays())),
    "ew_unary": lambda d: mk.ew_unary(
        d(st.sampled_from(["abs", "sqrt", "neg", "cos", "sin"])), d(st.one_of(arrays(), value))
    ),
    "NumArray.__eq__": lambda d: d(arrays()) == d(value),
    "merge": lambda d: mk.merge(d(arrays()) > 0, d(value), d(value)),
    "apply_broadcast": lambda d: mk.apply_broadcast(_add, d(arrays()), d(value)),
    "reduce_along_dim": lambda d: mk.reduce_along_dim("sum", d(arrays()), d(value)),
    "cumsum_along_dim": lambda d: mk.cumsum_along_dim(d(arrays()), d(value)),
    "extremum": lambda d: mk.extremum("min", d(arrays()), d(value)),
    "dot": lambda d: mk.dot(d(arrays()), d(arrays())),
    "rgb2gray": lambda d: mk.rgb2gray(d(arrays())),
    "zigzag_scan": _scan(mk.zigzag_scan),
    "boustrophedon_scan": _scan(mk.boustrophedon_scan),
    "linear_scan": _scan(mk.linear_scan),
    "distance_matrix": lambda d: mk.distance_matrix(
        d(arrays()), d(st.sampled_from(["loop3", "rowBroadcast", "fullBroadcast"]))
    ),
    "metric_euclidean": lambda d: mk.metric_euclidean(d(arrays()), d(arrays())),
    "metric_manhattan": lambda d: mk.metric_manhattan(d(arrays()), d(arrays())),
    "nearest_neighbor": _nearest_neighbor,
    "replace_neg_nan": lambda d: mk.replace_neg_nan(d(arrays())),
    "dctmtx": lambda d: mk.dctmtx(d(value)),
    "dct2d": _dct(mk.dct2d),
    "idct2d": _dct(mk.idct2d),
    "eig_sym": _eig_sym,
    "blockproc": lambda d: mk.blockproc(d(arrays()), (d(value), d(value)), lambda t: t),
    "blockproc/1-tuple": lambda d: mk.blockproc(d(arrays()), (d(value),), lambda t: t),
    "blockproc/3-tuple": lambda d: mk.blockproc(
        d(arrays()), (d(value), d(value), d(value)), lambda t: t
    ),
    "encode_pnm": lambda d: mk.encode_pnm(mk.Image(pixels=d(arrays()))),
    "decode_pnm": _decode_pnm,
    "Prng": lambda d: mk.Prng(d(value)).uniform((1, 2)),
    "Prng.uniform": lambda d: mk.Prng(1).uniform(d(dims)),
    "Prng.normal": lambda d: mk.Prng(1).normal(d(dims)),
    "Prng.randint": lambda d: mk.Prng(1).randint(d(value), d(value), d(dims)),
    # a well-typed reps of 2**62 is honored, so it is not drawn: it would
    # not finish
    "time_it": lambda d: mk.time_it(_ones, d(st.sampled_from([v for v in VALUES if v != 2**62]))),
    "run_scenario": lambda d: mk.run_scenario(
        mk.built_in_scenarios(vector_n=d(value))["vector-add"], d(value)
    ),
}


@pytest.mark.parametrize("name", sorted(ROWS))
@settings(max_examples=60)
@given(data=st.data())
def test_every_call_returns_or_raises_matkit_error(name, data):
    # the suite turns a RuntimeWarning into an error, so a stray one fails too
    try:
        ROWS[name](data.draw)
    except MatkitError:
        pass
