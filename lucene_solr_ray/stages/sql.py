"""Solr SQL front-end: a SQL subset compiled onto the streaming algebra.

The reference ships a Calcite-based SQL layer that rewrites SQL onto
streaming expressions (``solr/core/src/java/org/apache/solr/handler/sql/
SolrRules.java``, ``SQLHandler.java``): SELECT → SelectStream, WHERE →
query/HavingStream, GROUP BY + aggregates → RollupStream (over a
ParallelStream), ORDER BY → SortStream, LIMIT → LimitStream, and JOIN →
HashJoinStream / InnerJoinStream (``SolrRules``' join rules).  This module
does the same compilation onto the Ray-Data stages in
``stages/relational.py``:

    sql_query("SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS s "
              "FROM orders GROUP BY c_mktsegment "
              "HAVING n > 10 ORDER BY s DESC LIMIT 5", resolver)

Grammar subset: SELECT cols/aggs (COUNT(*)/SUM/AVG/MIN/MAX + aliases),
FROM one table or ``a [INNER|LEFT [OUTER]] JOIN b ON a.x = b.y``
(optionally qualified ``table.column`` names), WHERE with =, <>, !=, <,
<=, >, >=, AND/OR/NOT/parens and string/number literals, GROUP BY, HAVING
(over output columns), ORDER BY (multi-key, ASC/DESC), LIMIT.

Everything stays a Dataset until the final bounded collect: WHERE filters
vectorized per batch (conjuncts pushed below the join to their own side
when safe), aggregates run as the two-phase distributed rollup, HAVING /
projection run as batch transforms over the (bounded) grouped Dataset,
and ORDER BY / LIMIT compile to ``Dataset.sort().limit()`` IN the cluster
— the driver only ever receives the final head (or the grouped result,
bounded by group cardinality).  A plain un-aggregated SELECT with neither
ORDER BY nor LIMIT is the one unbounded collect, inherent to returning
the full result; use :func:`sql_dataset` to keep even that streaming.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["sql_query", "sql_dataset", "SqlError"]


class SqlError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<str>'(?:[^']|'')*')"
    r"|(?P<id>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_0-9]+)?)"
    r"|(?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,))"
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "and", "or", "not", "as", "asc", "desc", "count", "sum", "avg", "min",
    "max", "join", "inner", "left", "outer", "on", "distinct", "in",
    "between", "like", "is", "null",
}


def _render_tokens(toks: List[Tuple[str, str]]) -> str:
    """Re-render a token slice back to SQL text (subquery capture)."""
    parts = []
    for k, v in toks:
        if k == "str":
            parts.append("'" + str(v).replace("'", "''") + "'")
        else:
            parts.append(str(v))
    return " ".join(parts)


def _lex(s: str) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if m is None:
            if s[pos:].strip() == "":
                break
            raise SqlError(f"cannot lex SQL at: {s[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", m.group("num")))
        elif m.lastgroup == "str":
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.lastgroup == "id":
            t = m.group("id")
            out.append(
                ("kw", t.lower())
                if "." not in t and t.lower() in _KEYWORDS
                else ("id", t)
            )
        else:
            out.append(("op", m.group("op")))
    return out


def _split_qual(name: str) -> Tuple[Optional[str], str]:
    """``table.col`` → (table, col); bare → (None, col)."""
    if "." in name:
        q, c = name.split(".", 1)
        return q, c
    return None, name


class _Parser:
    def __init__(self, toks: List[Tuple[str, str]]):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "")

    def take(self, kind=None, val=None):
        k, v = self.peek()
        if (kind and k != kind) or (val and v != val):
            raise SqlError(f"expected {val or kind}, got {v!r}")
        self.i += 1
        return v

    def at_kw(self, *kws):
        k, v = self.peek()
        return k == "kw" and v in kws

    # SELECT list ----------------------------------------------------------
    def select_list(self):
        items = []
        while True:
            items.append(self.select_item())
            if self.peek() == ("op", ","):
                self.take()
                continue
            return items

    def select_item(self):
        k, v = self.peek()
        if k == "kw" and v in ("count", "sum", "avg", "min", "max"):
            self.take()
            self.take("op", "(")
            col = None
            if self.at_kw("distinct"):
                if v != "count":
                    raise SqlError("DISTINCT only supported in COUNT()")
                self.take()
                col = self.take("id")
                self.take("op", ")")
                alias = self._alias() or f"count_distinct_{col}"
                return ("agg", "count_distinct",
                        _split_qual(col)[1], alias)
            if self.peek() == ("op", "*"):
                self.take()
            else:
                node = self.expr()
                col = node[1] if node[0] == "colref" else node
            self.take("op", ")")
            suffix = col if isinstance(col, str) else "expr"
            alias = self._alias() or (
                f"{v}_{suffix}" if col is not None else v
            )
            if v != "count" and col is None:
                raise SqlError(f"{v.upper()} requires a column")
            return ("agg", v, col, alias)
        node = self.expr()
        if node[0] == "colref":
            alias = self._alias() or node[1]
            return ("col", node[1], None, alias)
        alias = self._alias()
        if alias is None:
            raise SqlError("expression select items need an AS alias")
        return ("expr", node, None, alias)

    # scalar expressions -----------------------------------------------------
    def expr(self):
        left = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()
            left = ("bin", op, left, self.term())
        return left

    def term(self):
        left = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()
            left = ("bin", op, left, self.factor())
        return left

    def factor(self):
        k, v = self.peek()
        if (k, v) == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        if (k, v) == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        if k == "num":
            self.take()
            return ("numlit", float(v) if "." in v else int(v))
        if k == "id":
            self.take()
            return ("colref", _split_qual(v)[1])
        raise SqlError(f"expected expression, got {v!r}")

    def _alias(self) -> Optional[str]:
        if self.at_kw("as"):
            self.take()
            return self.take("id")
        k, v = self.peek()
        if k == "id":
            self.take()
            return v
        return None

    # predicates -----------------------------------------------------------
    def pred(self):
        return self._or()

    def _or(self):
        left = self._and()
        while self.at_kw("or"):
            self.take()
            left = ("or", left, self._and())
        return left

    def _and(self):
        left = self._not()
        while self.at_kw("and"):
            self.take()
            left = ("and", left, self._not())
        return left

    def _not(self):
        if self.at_kw("not"):
            self.take()
            return ("not", self._not())
        if self.peek() == ("op", "("):
            self.take()
            p = self._or()
            self.take("op", ")")
            return p
        return self._cmp()

    def _cmp(self):
        col = self.take("id")
        negated = False
        if self.at_kw("not"):
            self.take()
            negated = True
        if self.at_kw("in"):
            self.take()
            self.take("op", "(")
            if self.at_kw("select"):
                # IN (SELECT ...): capture the balanced token slice —
                # compiled later as a broadcast semi-join
                depth = 1
                start = self.i
                while depth:
                    k, v = self.peek()
                    if k == "eof":
                        raise SqlError("unterminated IN (SELECT ...)")
                    if (k, v) == ("op", "("):
                        depth += 1
                    elif (k, v) == ("op", ")"):
                        depth -= 1
                        if depth == 0:
                            break
                    self.i += 1
                sub = _render_tokens(self.toks[start: self.i])
                self.take("op", ")")
                return ("insub", _split_qual(col)[1], sub, negated)
            vals = []
            while True:
                k, v = self.peek()
                if k == "num":
                    self.take()
                    vals.append(float(v) if "." in v else int(v))
                elif k == "str":
                    self.take()
                    vals.append(v)
                else:
                    raise SqlError(f"expected literal in IN list, got {v!r}")
                if self.peek() == ("op", ","):
                    self.take()
                    continue
                break
            self.take("op", ")")
            return ("inlist", _split_qual(col)[1], vals, negated)
        if self.at_kw("between"):
            self.take()
            lo = self._literal()
            if not self.at_kw("and"):
                raise SqlError("BETWEEN needs AND")
            self.take()
            hi = self._literal()
            return ("between", _split_qual(col)[1], lo, hi, negated)
        if self.at_kw("like"):
            self.take()
            pat = self.take("str")
            return ("like", _split_qual(col)[1], pat, negated)
        if negated:
            raise SqlError("NOT here must be followed by IN/BETWEEN/LIKE")
        if self.at_kw("is"):
            self.take()
            isneg = False
            if self.at_kw("not"):
                self.take()
                isneg = True
            if not self.at_kw("null"):
                raise SqlError("IS must be followed by [NOT] NULL")
            self.take()
            return ("isnull", _split_qual(col)[1], isneg)
        op = self.take("op")
        if op not in ("=", "<>", "!=", "<", "<=", ">", ">="):
            raise SqlError(f"bad comparison operator {op!r}")
        neg = False
        if self.peek() == ("op", "-"):
            self.take()
            neg = True
        k, v = self.peek()
        if k == "num":
            self.take()
            lit = float(v) if "." in v else int(v)
            if neg:
                lit = -lit
        elif k == "str" and not neg:
            self.take()
            lit = v
        else:
            raise SqlError(f"expected literal, got {v!r}")
        return ("cmp", _split_qual(col)[1], op, lit)

    def _literal(self):
        neg = False
        if self.peek() == ("op", "-"):
            self.take()
            neg = True
        k, v = self.peek()
        if k == "num":
            self.take()
            lit = float(v) if "." in v else int(v)
            return -lit if neg else lit
        if k == "str" and not neg:
            self.take()
            return v
        raise SqlError(f"expected literal, got {v!r}")


def _expr_to_arrow(node, t: pa.Table):
    kind = node[0]
    if kind == "numlit":
        return pa.scalar(node[1])
    if kind == "colref":
        return t.column(node[1])
    if kind == "neg":
        return pc.negate(_expr_to_arrow(node[1], t))
    if kind == "bin":
        _, op, l, r = node
        lv, rv = _expr_to_arrow(l, t), _expr_to_arrow(r, t)
        if op == "/":
            # SQL '/' is float division (pyarrow divides ints integrally)
            lv = pc.cast(lv, pa.float64())
            rv = pc.cast(rv, pa.float64())
        return {
            "+": pc.add, "-": pc.subtract,
            "*": pc.multiply, "/": pc.divide,
        }[op](lv, rv)
    raise SqlError(f"bad expression node {node!r}")


def _expr_cols(node, out: set) -> set:
    if node[0] == "colref":
        out.add(node[1])
    elif node[0] == "neg":
        _expr_cols(node[1], out)
    elif node[0] == "bin":
        _expr_cols(node[2], out)
        _expr_cols(node[3], out)
    return out


def _pred_to_arrow(p, t: pa.Table):
    kind = p[0]
    if kind == "inarr":
        _, col, vals, neg = p
        c = t.column(col)
        m = pc.fill_null(pc.is_in(c, value_set=vals), False)
        if neg:
            # SQL three-valued logic: NULL NOT IN (...) is NULL → excluded
            m = pc.and_(pc.invert(m), pc.is_valid(c))
        return m
    if kind == "cmp":
        _, col, op, lit = p
        c = t.column(col)
        return {
            "=": pc.equal, "<>": pc.not_equal, "!=": pc.not_equal,
            "<": pc.less, "<=": pc.less_equal, ">": pc.greater,
            ">=": pc.greater_equal,
        }[op](c, pa.scalar(lit))
    if kind == "between":
        _, col, lo, hi, neg = p
        c = t.column(col)
        m = pc.and_(pc.greater_equal(c, pa.scalar(lo)),
                    pc.less_equal(c, pa.scalar(hi)))
        if neg:
            m = pc.invert(m)  # null comparisons stay null → filtered out
        return pc.fill_null(m, False)
    if kind == "like":
        _, col, pat, neg = p
        m = pc.match_like(t.column(col), pat)
        if neg:
            m = pc.invert(m)  # NULL NOT LIKE stays NULL → excluded
        return pc.fill_null(m, False)
    if kind == "isnull":
        _, col, neg = p
        c = t.column(col)
        return pc.is_valid(c) if neg else pc.is_null(c)
    if kind == "and":
        return pc.and_(_pred_to_arrow(p[1], t), _pred_to_arrow(p[2], t))
    if kind == "or":
        return pc.or_(_pred_to_arrow(p[1], t), _pred_to_arrow(p[2], t))
    if kind == "not":
        return pc.invert(_pred_to_arrow(p[1], t))
    raise SqlError(f"bad predicate node {p!r}")


def _pred_cols(p, out: set) -> set:
    if p[0] in ("cmp", "inlist", "insub", "inarr", "between", "like",
                "isnull"):
        out.add(p[1])
    elif p[0] == "not":
        _pred_cols(p[1], out)
    else:
        _pred_cols(p[1], out)
        _pred_cols(p[2], out)
    return out


def _resolve_subqueries(p, resolver):
    """Replace IN-list / IN-(SELECT …) nodes with materialized value
    arrays: the subquery runs through the same compiler and its single
    output column becomes the semi-join's build side (dimension-sized by
    construction; it rides into the filter tasks with the closure)."""
    if p is None:
        return None
    k = p[0]
    if k == "insub":
        sub = sql_query(p[2], resolver)
        if sub.shape[1] != 1:
            raise SqlError(
                "IN (SELECT ...) must produce exactly one column, got "
                f"{list(sub.columns)}"
            )
        return ("inarr", p[1], pa.array(sub.iloc[:, 0].tolist()), p[3])
    if k == "inlist":
        return ("inarr", p[1], pa.array(p[2]), p[3])
    if k in ("and", "or"):
        return (k, _resolve_subqueries(p[1], resolver),
                _resolve_subqueries(p[2], resolver))
    if k == "not":
        return ("not", _resolve_subqueries(p[1], resolver))
    return p


def _conjuncts(p) -> List:
    """Flatten an AND-tree into its conjuncts (non-AND roots → [p])."""
    if p[0] == "and":
        return _conjuncts(p[1]) + _conjuncts(p[2])
    return [p]


def _filter_ds(ds, pred):
    def _filt(t: pa.Table) -> pa.Table:
        return t.filter(_pred_to_arrow(pred, t))

    return ds.map_batches(_filt, batch_format="pyarrow")


def _and_all(preds: List):
    out = preds[0]
    for p in preds[1:]:
        out = ("and", out, p)
    return out


def sql_dataset(
    sql: str,
    resolver: Callable[[str], "object"],
):
    """Parse + compile one SELECT to a (still lazy) ``ray.data.Dataset``
    — every stage streams; nothing is collected.  ``resolver(table)``
    returns the backing Dataset for a table name."""
    ds, _ = _compile(sql, resolver)
    return ds


def sql_query(
    sql: str,
    resolver: Callable[[str], "object"],
) -> pd.DataFrame:
    """Parse + execute one SELECT; returns the collected ``DataFrame``.
    With ORDER BY/LIMIT present only the final head crosses to the
    driver; grouped results are bounded by group cardinality."""
    ds, single_row = _compile(sql, resolver)
    if single_row is not None:
        return single_row
    return ds.to_pandas().reset_index(drop=True)


def _compile(sql: str, resolver):
    from lucene_solr_ray.stages.relational import (
        inner_join,
        rollup,
        select,
    )

    p = _Parser(_lex(sql))
    p.take("kw", "select")
    distinct = False
    if p.at_kw("distinct"):
        p.take()
        distinct = True
    items = p.select_list()
    p.take("kw", "from")
    left_name = p.take("id")
    # chained joins: FROM a JOIN b ON ... JOIN c ON ... (SolrRules
    # compiles arbitrary Calcite join trees; we compile left-deep chains)
    joins: List[Tuple[str, str, str, str]] = []
    while p.at_kw("inner", "left", "join"):
        how = "inner"
        if p.at_kw("inner"):
            p.take()
        elif p.at_kw("left"):
            p.take()
            how = "left_outer"
            if p.at_kw("outer"):
                p.take()
        p.take("kw", "join")
        right_name = p.take("id")
        p.take("kw", "on")
        a = p.take("id")
        p.take("op", "=")
        b = p.take("id")
        qa, ca = _split_qual(a)
        qb, cb = _split_qual(b)
        # route each side of the ON equality to its table by qualifier
        # (schema membership resolves the unqualified case at build time)
        if qa == right_name or qb == left_name:
            ca, cb = cb, ca
        joins.append((how, right_name, ca, cb))
    where = None
    if p.at_kw("where"):
        p.take()
        where = p.pred()
    group_by: List[str] = []
    if p.at_kw("group"):
        p.take()
        p.take("kw", "by")
        group_by.append(_split_qual(p.take("id"))[1])
        while p.peek() == ("op", ","):
            p.take()
            group_by.append(_split_qual(p.take("id"))[1])
    having = None
    if p.at_kw("having"):
        p.take()
        having = p.pred()
    order: List[Tuple[str, bool]] = []
    if p.at_kw("order"):
        p.take()
        p.take("kw", "by")
        while True:
            c = _split_qual(p.take("id"))[1]
            asc = True
            if p.at_kw("asc", "desc"):
                asc = p.take() == "asc"
            order.append((c, asc))
            if p.peek() == ("op", ","):
                p.take()
                continue
            break
    limit = None
    if p.at_kw("limit"):
        p.take()
        limit = int(p.take("num"))
    if p.peek()[0] != "eof":
        raise SqlError(f"trailing tokens: {p.peek()!r}")

    where = _resolve_subqueries(where, resolver)
    having = _resolve_subqueries(having, resolver)

    # prune at the read: only columns the query references leave storage
    # (select_columns over a parquet read projects into the scan)
    referenced = set()
    for it in items:
        if it[0] == "col":
            referenced.add(it[1])
        elif it[0] == "expr":
            _expr_cols(it[1], referenced)
        elif it[0] == "agg":
            if isinstance(it[2], str):
                referenced.add(it[2])
            elif it[2] is not None:
                _expr_cols(it[2], referenced)
    referenced |= set(group_by)
    if where is not None:
        _pred_cols(where, referenced)
    for c, _ in order:
        referenced.add(c)
    referenced.discard(None)

    def _prune(d):
        names = d.schema().names
        keep = [c for c in names if c in referenced]
        return d.select_columns(keep) if 0 < len(keep) < len(names) else d

    ds = resolver(left_name)
    if joins:
        for _, _, lkey, rkey in joins:
            referenced.update({lkey, rkey})
        rights = [
            (how, rname, lkey, rkey, _prune(resolver(rname)))
            for how, rname, lkey, rkey in joins
        ]
        ds = _prune(ds)
        if where is not None:
            # push safe conjuncts below the joins to their own input: a
            # conjunct whose columns all belong to EXACTLY ONE input
            # filters that input pre-shuffle (predicate pushdown;
            # right-side pushdown is unsafe under LEFT JOIN — those rows
            # must NULL-extend)
            inputs = [("__base__", set(ds.schema().names), "inner")] + [
                (rname, set(r.schema().names), how)
                for how, rname, _, _, r in rights
            ]
            pushed: Dict[str, List] = {}
            residual = []
            for c in _conjuncts(where):
                cols = _pred_cols(c, set())
                owners = [
                    (name, how) for name, names, how in inputs
                    if cols <= names
                ]
                if len(owners) == 1 and owners[0][1] == "inner":
                    pushed.setdefault(owners[0][0], []).append(c)
                else:
                    residual.append(c)
            if "__base__" in pushed:
                ds = _filter_ds(ds, _and_all(pushed["__base__"]))
            rights = [
                (how, rname, lkey, rkey,
                 _filter_ds(r, _and_all(pushed[rname]))
                 if rname in pushed else r)
                for how, rname, lkey, rkey, r in rights
            ]
            where = _and_all(residual) if residual else None
        for how, rname, lkey, rkey, right in rights:
            # resolve key sides by schema membership (qualifier routing
            # above covers the qualified form; bare keys route here)
            lcols = set(ds.schema().names)
            rcols = set(right.schema().names)
            if lkey not in lcols and rkey in lcols:
                lkey, rkey = rkey, lkey
            if lkey not in lcols or rkey not in rcols:
                raise SqlError(
                    f"join keys {lkey!r}={rkey!r} do not resolve to "
                    f"the accumulated left side and {rname!r}"
                )
            ds = inner_join(ds, right, on=lkey, right_on=rkey, how=how)
    else:
        ds = _prune(ds)
    if where is not None:
        ds = _filter_ds(ds, where)

    # materialize scalar select/agg-argument expressions as derived
    # columns (one fused vectorized map_batches; the reference's Calcite
    # projections compile to SelectStream evaluators the same way)
    derived: List[Tuple[str, tuple]] = []
    norm_items = []
    for it in items:
        if it[0] == "expr":
            derived.append((it[3], it[1]))
            norm_items.append(("col", it[3], None, it[3]))
        elif it[0] == "agg" and it[2] is not None \
                and not isinstance(it[2], str):
            tmp = f"_agg_expr_{len(derived)}"
            derived.append((tmp, it[2]))
            norm_items.append(("agg", it[1], tmp, it[3]))
        else:
            norm_items.append(it)
    items = norm_items
    if derived:
        def _derive(t: pa.Table) -> pa.Table:
            for name, node in derived:
                arr = _expr_to_arrow(node, t)
                if isinstance(arr, pa.Scalar):
                    arr = pa.array([arr.as_py()] * t.num_rows)
                if name in t.column_names:
                    t = t.set_column(
                        t.schema.get_field_index(name), name, arr
                    )
                else:
                    t = t.append_column(name, arr)
            return t

        ds = ds.map_batches(_derive, batch_format="pyarrow")

    aggs = [it for it in items if it[0] == "agg"]
    plain = [it for it in items if it[0] == "col"]
    if distinct and aggs:
        raise SqlError("SELECT DISTINCT with aggregates is not supported")
    cd_aggs = [it for it in aggs if it[1] == "count_distinct"]
    reg_aggs = [it for it in aggs if it[1] != "count_distinct"]
    if aggs:
        spec = [
            (fn, col, alias) if fn != "count" else ("count", None, alias)
            for _, fn, col, alias in reg_aggs
        ]
        if not group_by:
            from lucene_solr_ray.stages.relational import stats

            if plain:
                raise SqlError(
                    f"column {plain[0][1]!r} not in GROUP BY"
                )
            row = dict(stats(ds, spec)) if spec else {}
            for _, _, col, alias in cd_aggs:
                # exact distinct count, computed IN the cluster: dedupe
                # on the value (one grouped shuffle), count the non-NULL
                # values left (SQL: NULL is not a distinct value)
                from ray.data.aggregate import Count

                row[alias] = (
                    ds.select_columns([col]).groupby(col).count()
                    .aggregate(Count(on=col, ignore_nulls=True,
                                     alias_name=alias))[alias]
                )
            out = pd.DataFrame(
                [{it[3]: row[it[3]] for it in aggs}]
            )
            if having is not None:
                out = out[_pred_to_pandas(having, out)]
            return None, out.reset_index(drop=True)
        out_ds = rollup(ds, group_by, spec) if spec else None
        for _, _, col, alias in cd_aggs:
            # COUNT(DISTINCT col) GROUP BY keys: dedupe (keys, col) with
            # one grouped shuffle, then count the non-NULL values per key
            # (a key whose values are all NULL counts 0) — both exact,
            # both in-cluster; results are bounded by key cardinality
            from ray.data.aggregate import Count

            dd = (
                ds.select_columns(list(group_by) + [col])
                .groupby(list(group_by) + [col]).count()
                .groupby(list(group_by))
                .aggregate(Count(on=col, ignore_nulls=True,
                                 alias_name=alias))
            )
            if out_ds is None:
                out_ds = dd
            else:
                from lucene_solr_ray.stages.relational import inner_join

                out_ds = inner_join(
                    out_ds, dd,
                    on=group_by[0] if len(group_by) == 1 else tuple(group_by),
                )
        assert out_ds is not None
        # projection/rename of grouped keys per the select-list order —
        # IN the cluster, so HAVING/ORDER see output aliases
        cols, rename = [], {}
        for it in items:
            if it[0] == "col":
                if it[1] not in group_by:
                    raise SqlError(f"column {it[1]!r} not in GROUP BY")
                if it[3] != it[1]:
                    rename[it[1]] = it[3]
                cols.append(it[3])
            else:
                cols.append(it[3])
        out_ds = select(out_ds, rename=rename or None)
        out_ds = select(out_ds, columns=cols)
        ds = out_ds
    else:
        if having is not None:
            raise SqlError("HAVING requires aggregates")
        cols = [it[1] for it in plain]
        rename = {it[1]: it[3] for it in plain if it[3] != it[1]}
        ds = select(ds, columns=list(dict.fromkeys(cols)),
                    rename=rename or None)
        ds = select(ds, columns=[it[3] for it in plain])
        if distinct:
            # SELECT DISTINCT → UniqueStream over the full output tuple:
            # per-batch local dedup bounds the shuffle, then one grouped
            # head(1) makes it global (SolrRules compiles DISTINCT to a
            # unique over the sort stream the same way)
            keys = [it[3] for it in items]

            def _local_dedup(t: pa.Table) -> pa.Table:
                return t.group_by(keys).aggregate([]).select(keys)

            def _head1(df: pd.DataFrame) -> pd.DataFrame:
                return df.head(1)

            ds = (
                ds.map_batches(_local_dedup, batch_format="pyarrow")
                .groupby(keys if len(keys) > 1 else keys[0])
                .map_groups(_head1, batch_format="pandas")
            )

    if having is not None:
        hv = having
        ds = _filter_ds(ds, hv)
    if order:
        ds = ds.sort([c for c, _ in order],
                     descending=[not a for _, a in order])
    if limit is not None:
        ds = ds.limit(limit)
    return ds, None


def _pred_to_pandas(p, df: pd.DataFrame):
    kind = p[0]
    if kind == "inarr":
        _, col, vals, neg = p
        m = df[col].isin(vals.to_pylist())
        return (~m & df[col].notna()) if neg else m
    if kind == "cmp":
        _, col, op, lit = p
        c = df[col]
        return {
            "=": c.eq, "<>": c.ne, "!=": c.ne, "<": c.lt, "<=": c.le,
            ">": c.gt, ">=": c.ge,
        }[op](lit)
    if kind == "between":
        _, col, lo, hi, neg = p
        m = df[col].ge(lo) & df[col].le(hi)
        return (~m & df[col].notna()) if neg else m
    if kind == "like":
        _, col, pat, neg = p
        rx = "^" + re.escape(pat).replace("%", ".*").replace("_", ".") + "$"
        if neg:
            return ~df[col].str.match(rx, na=True)
        return df[col].str.match(rx, na=False)
    if kind == "isnull":
        _, col, neg = p
        return df[col].notna() if neg else df[col].isna()
    if kind == "and":
        return _pred_to_pandas(p[1], df) & _pred_to_pandas(p[2], df)
    if kind == "or":
        return _pred_to_pandas(p[1], df) | _pred_to_pandas(p[2], df)
    if kind == "not":
        return ~_pred_to_pandas(p[1], df)
    raise SqlError(f"bad predicate node {p!r}")
