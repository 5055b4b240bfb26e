package dpsql

import (
	"fmt"
	"strconv"
	"strings"
)

// AggKind enumerates the supported aggregate functions.
type AggKind int

// Supported aggregates.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMedian
	AggP25
	AggP75
	AggVar
	AggStdDev
	AggIQR
	AggMin
	AggMax
	AggQuantile
)

var aggNames = map[string]AggKind{
	"count":    AggCount,
	"sum":      AggSum,
	"avg":      AggAvg,
	"median":   AggMedian,
	"p25":      AggP25,
	"p75":      AggP75,
	"var":      AggVar,
	"stddev":   AggStdDev,
	"iqr":      AggIQR,
	"min":      AggMin,
	"max":      AggMax,
	"quantile": AggQuantile,
}

func (a AggKind) String() string {
	for name, k := range aggNames {
		if k == a {
			return strings.ToUpper(name)
		}
	}
	return fmt.Sprintf("AggKind(%d)", int(a))
}

// Expr is a boolean predicate over a row.
type Expr interface {
	// Eval evaluates the predicate against a row of table t.
	Eval(t *Table, row []Value) (bool, error)
	// evalShard evaluates the predicate over every row of one shard
	// snapshot, writing row i's verdict to sel[i] — the columnar scan
	// path: each node runs one tight loop over the typed column slices
	// instead of dispatching per row. It assumes validate(t) passed, at
	// which point evaluation cannot error (the only Eval errors are
	// unknown columns/operators and kind mismatches, all statically
	// checked), and it must agree with Eval row for row.
	evalShard(t *Table, sn shardSnap, sel []bool)
	// validate checks the predicate statically against t's schema
	// (columns exist, literal kinds are comparable, operators known), so
	// Exec can refuse an invalid query before any budget is spent.
	validate(t *Table) error
}

// CmpExpr is "column <op> literal".
type CmpExpr struct {
	Col string
	Op  string // = != < <= > >=
	Lit Value
}

// Eval implements Expr.
func (e *CmpExpr) Eval(t *Table, row []Value) (bool, error) {
	ix, err := t.ColumnIndex(e.Col)
	if err != nil {
		return false, err
	}
	c, err := row[ix].Compare(e.Lit)
	if err != nil {
		return false, err
	}
	switch e.Op {
	case "=":
		return c == 0, nil
	case "!=":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	default:
		return false, fmt.Errorf("%w: unknown operator %q", ErrSyntax, e.Op)
	}
}

// validate implements Expr.
func (e *CmpExpr) validate(t *Table) error {
	ix, err := t.ColumnIndex(e.Col)
	if err != nil {
		return err
	}
	// Mirror Value.Compare's kind rule: numeric compares with numeric,
	// string with string. The column's kind stands in for its cells.
	colNumeric := t.Columns[ix].Kind != KindString
	if colNumeric != e.Lit.IsNumeric() {
		return fmt.Errorf("dpsql: cannot compare %s with %s", t.Columns[ix].Kind, e.Lit.Kind)
	}
	switch e.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		return nil
	default:
		return fmt.Errorf("%w: unknown operator %q", ErrSyntax, e.Op)
	}
}

// evalShard implements Expr: one typed loop over the column, comparing
// against the literal with exactly Value.Compare's three-way rule
// (numeric compares on the F payload; NaN compares as equal to
// everything, Compare's default branch — evalShard reproduces that bit
// of weirdness rather than "fixing" it, because Eval is the twin).
func (e *CmpExpr) evalShard(t *Table, sn shardSnap, sel []bool) {
	ix, _ := t.ColumnIndex(e.Col) // validate() already resolved it
	var ltOK, eqOK, gtOK bool
	switch e.Op {
	case "=":
		eqOK = true
	case "!=":
		ltOK, gtOK = true, true
	case "<":
		ltOK = true
	case "<=":
		ltOK, eqOK = true, true
	case ">":
		gtOK = true
	case ">=":
		gtOK, eqOK = true, true
	}
	if t.Columns[ix].Kind == KindString {
		// Compare each dictionary entry once, then map rows by code.
		lit, col := e.Lit.S, &sn.cols[ix]
		verdict := make([]bool, len(col.dict))
		for d, v := range col.dict {
			switch {
			case v < lit:
				verdict[d] = ltOK
			case v > lit:
				verdict[d] = gtOK
			default:
				verdict[d] = eqOK
			}
		}
		for i, c := range col.codes {
			sel[i] = verdict[c]
		}
		return
	}
	lit := e.Lit.F
	if t.Columns[ix].Kind == KindInt {
		for i, iv := range sn.cols[ix].is {
			v := float64(iv)
			switch {
			case v < lit:
				sel[i] = ltOK
			case v > lit:
				sel[i] = gtOK
			default:
				sel[i] = eqOK
			}
		}
		return
	}
	for i, v := range sn.cols[ix].fs {
		switch {
		case v < lit:
			sel[i] = ltOK
		case v > lit:
			sel[i] = gtOK
		default:
			sel[i] = eqOK
		}
	}
}

// BinExpr is "left AND/OR right".
type BinExpr struct {
	Op          string // "and" | "or"
	Left, Right Expr
}

// Eval implements Expr.
func (e *BinExpr) Eval(t *Table, row []Value) (bool, error) {
	l, err := e.Left.Eval(t, row)
	if err != nil {
		return false, err
	}
	if e.Op == "and" && !l {
		return false, nil
	}
	if e.Op == "or" && l {
		return true, nil
	}
	return e.Right.Eval(t, row)
}

// validate implements Expr.
func (e *BinExpr) validate(t *Table) error {
	if err := e.Left.validate(t); err != nil {
		return err
	}
	return e.Right.validate(t)
}

// evalShard implements Expr: evaluate both sides' bitmaps and combine.
// Eval short-circuits the right side, but post-validate evaluation is
// pure and error-free, so evaluating it everywhere changes nothing but
// the clock — and keeps both children as single tight loops.
func (e *BinExpr) evalShard(t *Table, sn shardSnap, sel []bool) {
	e.Left.evalShard(t, sn, sel)
	tmp := make([]bool, len(sel))
	e.Right.evalShard(t, sn, tmp)
	if e.Op == "and" {
		for i, r := range tmp {
			sel[i] = sel[i] && r
		}
		return
	}
	for i, r := range tmp {
		sel[i] = sel[i] || r
	}
}

// NotExpr negates its operand.
type NotExpr struct{ Inner Expr }

// Eval implements Expr.
func (e *NotExpr) Eval(t *Table, row []Value) (bool, error) {
	v, err := e.Inner.Eval(t, row)
	return !v, err
}

// evalShard implements Expr.
func (e *NotExpr) evalShard(t *Table, sn shardSnap, sel []bool) {
	e.Inner.evalShard(t, sn, sel)
	for i := range sel {
		sel[i] = !sel[i]
	}
}

// validate implements Expr.
func (e *NotExpr) validate(t *Table) error { return e.Inner.validate(t) }

// AggSpec is one aggregate in the SELECT list.
type AggSpec struct {
	Kind AggKind
	Col  string  // empty for COUNT(*)
	P    float64 // QUANTILE(col, p) probability; 0 otherwise
}

// Query is a parsed aggregation query.
type Query struct {
	Aggs    []AggSpec
	Table   string
	Where   Expr   // nil when absent
	GroupBy string // empty when absent
}

// Parse parses the supported SQL subset:
//
//	SELECT <agg>(<col>|*) [, <agg>(<col>|*)]* FROM <table>
//	  [WHERE <pred>] [GROUP BY <col>]
func Parse(sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("%w: trailing input at %s", ErrSyntax, p.peek())
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// expectKeyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("%w: expected %s, got %s", ErrSyntax, strings.ToUpper(kw), t)
	}
	return nil
}

// atKeyword reports whether the lookahead is the given keyword.
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		spec, err := p.parseAggSpec()
		if err != nil {
			return nil, err
		}
		q.Aggs = append(q.Aggs, spec)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent {
		return nil, fmt.Errorf("%w: expected table name, got %s", ErrSyntax, tbl)
	}
	q.Table = tbl.text

	if p.atKeyword("where") {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.atKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		col := p.next()
		if col.kind != tokIdent {
			return nil, fmt.Errorf("%w: expected GROUP BY column, got %s", ErrSyntax, col)
		}
		q.GroupBy = col.text
	}
	return q, nil
}

// parseAggSpec parses one "agg(col)" or "COUNT(*)" item.
func (p *parser) parseAggSpec() (AggSpec, error) {
	aggTok := p.next()
	if aggTok.kind != tokIdent {
		return AggSpec{}, fmt.Errorf("%w: expected aggregate, got %s", ErrSyntax, aggTok)
	}
	agg, ok := aggNames[strings.ToLower(aggTok.text)]
	if !ok {
		return AggSpec{}, fmt.Errorf("%w: unknown aggregate %q", ErrSyntax, aggTok.text)
	}
	if t := p.next(); t.kind != tokLParen {
		return AggSpec{}, fmt.Errorf("%w: expected ( after aggregate, got %s", ErrSyntax, t)
	}
	spec := AggSpec{Kind: agg}
	switch t := p.next(); t.kind {
	case tokStar:
		if agg != AggCount {
			return AggSpec{}, fmt.Errorf("%w: only COUNT accepts *", ErrSyntax)
		}
	case tokIdent:
		spec.Col = t.text
	default:
		return AggSpec{}, fmt.Errorf("%w: expected column or *, got %s", ErrSyntax, t)
	}
	if spec.Kind == AggQuantile {
		if t := p.next(); t.kind != tokComma {
			return AggSpec{}, fmt.Errorf("%w: QUANTILE needs (column, p), got %s", ErrSyntax, t)
		}
		num := p.next()
		if num.kind != tokNumber {
			return AggSpec{}, fmt.Errorf("%w: QUANTILE probability must be numeric, got %s", ErrSyntax, num)
		}
		pv, err := strconv.ParseFloat(num.text, 64)
		if err != nil || !(pv > 0 && pv < 1) {
			return AggSpec{}, fmt.Errorf("%w: QUANTILE probability must be in (0,1), got %q", ErrSyntax, num.text)
		}
		spec.P = pv
	}
	if t := p.next(); t.kind != tokRParen {
		return AggSpec{}, fmt.Errorf("%w: expected ) , got %s", ErrSyntax, t)
	}
	return spec, nil
}

// parseOr handles the lowest precedence level: OR.
func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: "or", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: "and", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atKeyword("not") {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &NotExpr{Inner: inner}, nil
	}
	if p.peek().kind == tokLParen {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if t := p.next(); t.kind != tokRParen {
			return nil, fmt.Errorf("%w: expected ), got %s", ErrSyntax, t)
		}
		return e, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	col := p.next()
	if col.kind != tokIdent {
		return nil, fmt.Errorf("%w: expected column in predicate, got %s", ErrSyntax, col)
	}
	op := p.next()
	if op.kind != tokOp {
		return nil, fmt.Errorf("%w: expected comparison operator, got %s", ErrSyntax, op)
	}
	lit := p.next()
	var v Value
	switch lit.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(lit.text, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad number %q", ErrSyntax, lit.text)
		}
		v = Float(f)
	case tokString:
		v = Str(lit.text)
	default:
		return nil, fmt.Errorf("%w: expected literal, got %s", ErrSyntax, lit)
	}
	return &CmpExpr{Col: col.text, Op: op.text, Lit: v}, nil
}
