package sqldb

// Deep clones of the AST. The plan cache keeps one pristine parsed
// statement per shape and hands every execution its own copy: bind
// mutates ColumnRef.slot and FuncCall.aggSlot in place, so concurrent
// executions of one cached shape must not share nodes. Cloning a parsed
// tree is still far cheaper than re-lexing and re-parsing the statement
// text.

// cloneStmt returns a deep copy of st sharing no mutable nodes with it.
func cloneStmt(st Stmt) Stmt {
	switch s := st.(type) {
	case nil:
		return nil
	case *SelectStmt:
		return cloneSelect(s)
	case *InsertStmt:
		c := &InsertStmt{Table: s.Table, TableOff: s.TableOff}
		c.Columns = append([]string(nil), s.Columns...)
		c.ColumnOffs = append([]int(nil), s.ColumnOffs...)
		c.Rows = make([][]Expr, len(s.Rows))
		for i, row := range s.Rows {
			c.Rows[i] = cloneExprs(row)
		}
		return c
	case *UpdateStmt:
		c := &UpdateStmt{Table: s.Table, Alias: s.Alias, Where: cloneExpr(s.Where), TableOff: s.TableOff}
		c.Set = make([]SetClause, len(s.Set))
		for i, sc := range s.Set {
			c.Set[i] = SetClause{Column: sc.Column, Value: cloneExpr(sc.Value), ColOff: sc.ColOff}
		}
		return c
	case *DeleteStmt:
		return &DeleteStmt{Table: s.Table, Alias: s.Alias, Where: cloneExpr(s.Where), TableOff: s.TableOff}
	case *CreateTableStmt:
		c := &CreateTableStmt{Table: s.Table, IfNotExists: s.IfNotExists}
		c.Columns = make([]ColumnDef, len(s.Columns))
		for i, cd := range s.Columns {
			c.Columns[i] = cd
			c.Columns[i].Default = cloneExpr(cd.Default)
		}
		return c
	case *AlterTableStmt:
		c := &AlterTableStmt{Table: s.Table, DropColumn: s.DropColumn, RenameTo: s.RenameTo, TableOff: s.TableOff}
		if s.AddColumn != nil {
			cd := *s.AddColumn
			cd.Default = cloneExpr(s.AddColumn.Default)
			c.AddColumn = &cd
		}
		return c
	case *DropTableStmt:
		cp := *s
		return &cp
	case *CreateIndexStmt:
		cp := *s
		return &cp
	case *DropIndexStmt:
		cp := *s
		return &cp
	case *ExplainStmt:
		return &ExplainStmt{Analyze: s.Analyze, Target: cloneStmt(s.Target)}
	case *BeginStmt:
		return &BeginStmt{}
	case *CommitStmt:
		return &CommitStmt{}
	case *RollbackStmt:
		return &RollbackStmt{}
	default:
		return nil
	}
}

func cloneSelect(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	c := &SelectStmt{
		Distinct: s.Distinct,
		Star:     s.Star,
		Where:    cloneExpr(s.Where),
		GroupBy:  cloneExprs(s.GroupBy),
		Having:   cloneExpr(s.Having),
		Limit:    cloneExpr(s.Limit),
		Offset:   cloneExpr(s.Offset),
	}
	if s.Items != nil {
		c.Items = make([]SelectItem, len(s.Items))
		for i, it := range s.Items {
			c.Items[i] = SelectItem{Expr: cloneExpr(it.Expr), Alias: it.Alias, TableStar: it.TableStar}
		}
	}
	if s.From != nil {
		c.From = make([]TableRef, len(s.From))
		for i, tr := range s.From {
			c.From[i] = TableRef{Table: tr.Table, Sub: cloneSelect(tr.Sub), Alias: tr.Alias, Off: tr.Off}
			if tr.Joins != nil {
				c.From[i].Joins = make([]JoinClause, len(tr.Joins))
				for j, jc := range tr.Joins {
					c.From[i].Joins[j] = JoinClause{
						Kind:  jc.Kind,
						Table: jc.Table,
						Sub:   cloneSelect(jc.Sub),
						Alias: jc.Alias,
						On:    cloneExpr(jc.On),
						Off:   jc.Off,
					}
				}
			}
		}
	}
	if s.OrderBy != nil {
		c.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			c.OrderBy[i] = OrderItem{Expr: cloneExpr(o.Expr), Desc: o.Desc}
		}
	}
	if s.Unions != nil {
		c.Unions = make([]UnionPart, len(s.Unions))
		for i, u := range s.Unions {
			c.Unions[i] = UnionPart{All: u.All, Sel: cloneSelect(u.Sel)}
		}
	}
	return c
}

func cloneExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = cloneExpr(e)
	}
	return out
}

func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		cp := *x
		return &cp
	case *ColumnRef:
		cp := *x
		return &cp
	case *Param:
		cp := *x
		return &cp
	case *Unary:
		return &Unary{Op: x.Op, X: cloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R)}
	case *LikeExpr:
		return &LikeExpr{Not: x.Not, X: cloneExpr(x.X), Pattern: cloneExpr(x.Pattern), Escape: cloneExpr(x.Escape)}
	case *BetweenExpr:
		return &BetweenExpr{Not: x.Not, X: cloneExpr(x.X), Lo: cloneExpr(x.Lo), Hi: cloneExpr(x.Hi)}
	case *InExpr:
		c := &InExpr{Not: x.Not, X: cloneExpr(x.X), List: cloneExprs(x.List)}
		if x.Sub != nil {
			c.Sub = &Subquery{Sel: cloneSelect(x.Sub.Sel)}
		}
		return c
	case *Subquery:
		return &Subquery{Sel: cloneSelect(x.Sel)}
	case *ExistsExpr:
		c := &ExistsExpr{Not: x.Not}
		if x.Sub != nil {
			c.Sub = &Subquery{Sel: cloneSelect(x.Sub.Sel)}
		}
		return c
	case *IsNullExpr:
		return &IsNullExpr{Not: x.Not, X: cloneExpr(x.X)}
	case *FuncCall:
		return &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct,
			Args: cloneExprs(x.Args), Off: x.Off, aggSlot: x.aggSlot}
	case *CaseExpr:
		c := &CaseExpr{Operand: cloneExpr(x.Operand), Else: cloneExpr(x.Else)}
		c.Whens = make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = CaseWhen{Cond: cloneExpr(w.Cond), Then: cloneExpr(w.Then)}
		}
		return c
	case *CastExpr:
		return &CastExpr{X: cloneExpr(x.X), To: x.To}
	default:
		return nil
	}
}
