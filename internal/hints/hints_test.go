package hints

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

const program = `
        .func main
main:   li   $s7, 99991
        li   $t9, 800
loop:   sll  $t0, $s7, 13
        xor  $s7, $s7, $t0
        srl  $t0, $s7, 7
        xor  $s7, $s7, $t0
        andi $t1, $s7, 1
        beq  $t1, $zero, els
        addi $s0, $s0, 3
        sd   $s0, 0($sp)
        j    join
els:    addi $s0, $s0, 5
join:   jal  leaf
        addi $t9, $t9, -1
        bgtz $t9, loop
        halt
        .func leaf
leaf:   addi $v0, $a0, 1
        ret
`

func build(t *testing.T) (*core.Analysis, *Section) {
	t.Helper()
	p, err := asm.Assemble(program)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, Build(a)
}

func TestBuildCoversAllSpawns(t *testing.T) {
	a, s := build(t)
	if len(s.Records) != len(a.Spawns) {
		t.Fatalf("records = %d, spawns = %d", len(s.Records), len(a.Spawns))
	}
	for i, r := range s.Records {
		if r.From != a.Spawns[i].From || r.Target != a.Spawns[i].Target || r.Kind != a.Spawns[i].Kind {
			t.Fatalf("record %d diverges from analysis", i)
		}
	}
}

func TestDepHints(t *testing.T) {
	a, s := build(t)
	p := a.Prog
	for _, r := range s.Records {
		if r.Kind != core.KindHammock {
			continue
		}
		// The hammock jumps over arms writing $s0 and storing to the
		// stack: both must be flagged.
		if r.DepHint&(1<<uint(isa.S0)) == 0 {
			t.Errorf("hammock at %s: $s0 write not hinted", p.SymbolFor(r.From))
		}
		if r.DepHint&MemBit == 0 {
			t.Errorf("hammock at %s: store not hinted", p.SymbolFor(r.From))
		}
	}
	// The procFT spawn jumps over a call: caller-saved registers hinted.
	found := false
	for _, r := range s.Records {
		if r.Kind == core.KindProcFT {
			found = true
			if r.DepHint&(1<<uint(isa.V0)) == 0 || r.DepHint&(1<<uint(isa.RA)) == 0 {
				t.Errorf("call region must hint $v0 and $ra: %x", r.DepHint)
			}
		}
	}
	if !found {
		t.Fatalf("no procFT record")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, s := build(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(s.Records) {
		t.Fatalf("round trip lost records")
	}
	for i := range got.Records {
		if got.Records[i] != s.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, got.Records[i], s.Records[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, s := build(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bit flip in a record.
	flipped := append([]byte{}, raw...)
	flipped[20] ^= 0x10
	if _, err := Decode(bytes.NewReader(flipped)); err == nil {
		t.Fatalf("corrupted section decoded")
	}
	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatalf("bad magic accepted")
	}
	// Truncation.
	if _, err := Decode(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatalf("truncated section accepted")
	}
	// Empty input.
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatalf("empty input accepted")
	}
}

// TestDecodedSectionDrivesTheMachine: a spawn table loaded from the binary
// section produces exactly the same simulation as the in-memory analysis.
func TestDecodedSectionDrivesTheMachine(t *testing.T) {
	a, s := build(t)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Run(a.Prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := machine.Run(tr, nil, core.PolicyPostdoms.Source(a), machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := machine.Run(tr, nil, loaded.Source(), machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The section carries ALL spawn kinds (postdoms + loop), so filter:
	// compare against the full-table source instead.
	full := core.Table{}
	for _, sp := range a.Spawns {
		full[sp.From] = append(full[sp.From], sp)
	}
	r3, err := machine.Run(tr, nil, core.NewStaticSource(full), machine.PolyFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != r3.Cycles || r2.SpawnsTaken != r3.SpawnsTaken {
		t.Fatalf("decoded section (%d cycles, %d spawns) != full table (%d cycles, %d spawns)",
			r2.Cycles, r2.SpawnsTaken, r3.Cycles, r3.SpawnsTaken)
	}
	_ = r1
}
