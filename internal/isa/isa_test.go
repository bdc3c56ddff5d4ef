package isa

import "testing"

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                          Op
		mem, bounds, branch, paUnit bool
	}{
		{OpNop, false, false, false, false},
		{OpALU, false, false, false, false},
		{OpLoad, true, false, false, false},
		{OpStore, true, false, false, false},
		{OpWDCheck, true, false, false, false},
		{OpBranch, false, false, true, false},
		{OpCall, false, false, true, false},
		{OpRet, false, false, true, false},
		{OpBndstr, false, true, false, false},
		{OpBndclr, false, true, false, false},
		{OpPacma, false, false, false, true},
		{OpXpacm, false, false, false, true},
		{OpAutm, false, false, false, true},
		{OpPacia, false, false, false, true},
		{OpAutia, false, false, false, true},
	}
	for _, c := range cases {
		if c.op.IsMem() != c.mem {
			t.Errorf("%v.IsMem() = %v", c.op, c.op.IsMem())
		}
		if c.op.IsBoundsOp() != c.bounds {
			t.Errorf("%v.IsBoundsOp() = %v", c.op, c.op.IsBoundsOp())
		}
		if c.op.IsBranch() != c.branch {
			t.Errorf("%v.IsBranch() = %v", c.op, c.op.IsBranch())
		}
		if c.op.IsPA() != c.paUnit {
			t.Errorf("%v.IsPA() = %v", c.op, c.op.IsPA())
		}
	}
}

func TestOpString(t *testing.T) {
	if OpLoad.String() != "load" || OpBndstr.String() != "bndstr" {
		t.Error("unexpected mnemonics")
	}
	if Op(200).String() == "" {
		t.Error("out-of-range op must still stringify")
	}
}

func TestCounts(t *testing.T) {
	var c Counts
	add := func(in Inst) { c.Add(&in) }
	add(Inst{Op: OpLoad, Signed: true})
	add(Inst{Op: OpLoad})
	add(Inst{Op: OpStore, Signed: true})
	add(Inst{Op: OpStore})
	add(Inst{Op: OpBndstr})
	add(Inst{Op: OpBndclr})
	add(Inst{Op: OpPacma})
	add(Inst{Op: OpXpacm})
	add(Inst{Op: OpAutm})
	add(Inst{Op: OpALU})

	if c.Total != 10 {
		t.Errorf("Total = %d", c.Total)
	}
	if c.SignedLoads != 1 || c.UnsignedLoads != 1 || c.SignedStores != 1 || c.UnsignedStore != 1 {
		t.Errorf("mem split wrong: %+v", c)
	}
	if c.BoundsOps() != 2 {
		t.Errorf("BoundsOps = %d", c.BoundsOps())
	}
	if c.PAOps() != 3 {
		t.Errorf("PAOps = %d", c.PAOps())
	}
	if c.Of(OpALU) != 1 {
		t.Errorf("Of(OpALU) = %d", c.Of(OpALU))
	}
}

func TestInstString(t *testing.T) {
	in := Inst{Op: OpLoad, Addr: 0x2000, Signed: true, PAC: 0xABCD, AHC: 1, HomeWay: 2}
	if s := in.String(); s == "" {
		t.Error("empty String for signed load")
	}
	br := Inst{Op: OpBranch, BranchID: 7, Taken: true}
	if s := br.String(); s == "" {
		t.Error("empty String for branch")
	}
	if (Inst{Op: OpALU}).String() != "alu" {
		t.Error("plain op String mismatch")
	}
}
