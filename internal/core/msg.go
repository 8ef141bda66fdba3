package core

import (
	"fmt"

	"dpspark/internal/matrix"
)

// Role tags a tile message flowing through the IM driver's stages.
type Role uint8

// Message roles.
const (
	// RoleSelf is a target block's current (pre-update) value, selected
	// out of the DP RDD by a FilterX predicate.
	RoleSelf Role = iota
	// RoleDone is a block already updated in an earlier stage of this
	// iteration, passing through to the iteration's output.
	RoleDone
	// RolePivot is a copy of the updated pivot tile A(k,k), addressed to
	// a consumer block (the w operand of B, C and D).
	RolePivot
	// RoleRow is a copy of an updated row-panel tile B(k,j), addressed to
	// the D blocks of column j (the v operand of D).
	RoleRow
	// RoleCol is a copy of an updated column-panel tile C(i,k), addressed
	// to the D blocks of row i (the u operand of D).
	RoleCol
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleSelf:
		return "self"
	case RoleDone:
		return "done"
	case RolePivot:
		return "pivot"
	case RoleRow:
		return "row"
	case RoleCol:
		return "col"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Msg is a tagged tile: the unit the IM driver's flatMaps emit and its
// combineByKeys assemble. The copies a kernel makes of its updated output
// tile — the paper's "2(r−k−1) + (r−k−1)² copies" — are Msgs with
// RolePivot/RoleRow/RoleCol addressed to the consumers' coordinates.
type Msg struct {
	Role Role
	Tile *matrix.Tile
}

// SizeBytes implements the engine sizer hook: a tagged tile costs its
// payload plus the tag.
func (m Msg) SizeBytes() int64 {
	if m.Tile == nil {
		return 1
	}
	return m.Tile.Bytes() + 1
}

// Operands is the assembled operand set for one target block — the value
// type produced by combineByKey in Listing 1.
type Operands struct {
	Self  *matrix.Tile
	Done  *matrix.Tile
	Pivot *matrix.Tile
	Row   *matrix.Tile
	Col   *matrix.Tile
}

// SizeBytes implements the engine sizer hook.
func (o Operands) SizeBytes() int64 {
	var n int64
	for _, t := range []*matrix.Tile{o.Self, o.Done, o.Pivot, o.Row, o.Col} {
		if t != nil {
			n += t.Bytes()
		}
	}
	return n + 1
}

// absorb merges one message into the operand set in place; duplicate
// roles for one key indicate a driver bug and panic loudly.
func (o *Operands) absorb(m Msg) {
	switch m.Role {
	case RoleSelf:
		if o.Self != nil {
			panic("core: duplicate self operand")
		}
		o.Self = m.Tile
	case RoleDone:
		if o.Done != nil {
			panic("core: duplicate done operand")
		}
		o.Done = m.Tile
	case RolePivot:
		if o.Pivot != nil {
			panic("core: duplicate pivot operand")
		}
		o.Pivot = m.Tile
	case RoleRow:
		if o.Row != nil {
			panic("core: duplicate row operand")
		}
		o.Row = m.Tile
	case RoleCol:
		if o.Col != nil {
			panic("core: duplicate col operand")
		}
		o.Col = m.Tile
	default:
		panic(fmt.Sprintf("core: unknown role %v", m.Role))
	}
}
