package kernels_test

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/sysos"
	"repro/internal/workloads/kernels"
)

// lcg mirrors the in-kernel generator; every oracle below replays the
// same recurrence the assembly runs.
type lcg struct{ x int64 }

func (l *lcg) next() int64 {
	l.x = (l.x*1103515245 + 12345) & 0x7fffffff
	return l.x
}

// oracles computes each kernel's expected stdout with a straightforward
// Go re-implementation. Keyed by kernel name.
var oracles = map[string]func() string{
	"quicksort": func() string {
		const n, seed = 1500, 42
		g := lcg{seed}
		a := make([]int64, n)
		var sum int64
		for i := range a {
			a[i] = g.next() & 0xffff
			sum += a[i]
		}
		// Any correct sort gives the same min/max/sum; inversions must be 0.
		min, max := a[0], a[0]
		for _, v := range a[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return fmt.Sprintf("qsort %d\nsum %d\ninv 0\nmin %d\nmax %d\n", n, sum, min, max)
	},
	"rle": func() string {
		const seed, n = 7, 10000
		g := lcg{seed}
		src := make([]byte, 0, n)
		for len(src) < n {
			x := g.next()
			c := byte('a' + x&3)
			r := int((x>>2)&7) + 1
			for ; r > 0 && len(src) < n; r-- {
				src = append(src, c)
			}
		}
		var enc []byte
		for i := 0; i < n; {
			c := src[i]
			cnt := 0
			for i < n && src[i] == c && cnt < 255 {
				cnt++
				i++
			}
			enc = append(enc, byte(cnt), c)
		}
		var crc int64
		for _, b := range enc {
			crc = (crc*31 + int64(b)) & 0xffffff
		}
		// The decompressor must reproduce src exactly, so bad = 0.
		return fmt.Sprintf("rle %d\nenc %d\nbad 0\ncrc %d\n", n, len(enc), crc)
	},
	"bfs": func() string {
		const v, e, seed = 1500, 6000, 99
		g := lcg{seed}
		adj := make([][]int, v)
		for i := 0; i < e; i++ {
			u := int(g.next() % v)
			w := int(g.next() % v)
			adj[u] = append(adj[u], w)
		}
		dist := make([]int64, v)
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		var visited, sum int64
		for _, d := range dist {
			if d >= 0 {
				visited++
				sum += d
			}
		}
		return fmt.Sprintf("bfs %d %d\nvisited %d\nsum %d\n", v, e, visited, sum)
	},
	"matmul": func() string {
		const n, seed = 32, 5
		g := lcg{seed}
		fill := func() []int64 {
			m := make([]int64, n*n)
			for i := range m {
				m[i] = (g.next() & 15) - 8
			}
			return m
		}
		a, b := fill(), fill()
		var trace, sum int64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var acc int64
				for k := 0; k < n; k++ {
					acc += a[i*n+k] * b[k*n+j]
				}
				sum += acc
				if i == j {
					trace += acc
				}
			}
		}
		return fmt.Sprintf("matmul %d\ntrace %d\nsum %d\n", n, trace, sum)
	},
	"strsearch": func() string {
		const tlen, seed, pat = 12000, 3, "abcab"
		g := lcg{seed}
		text := make([]byte, tlen)
		for i := range text {
			text[i] = byte('a' + g.next()&3)
		}
		var hits, possum int64
		for i := 0; i+len(pat) <= tlen; i++ {
			if string(text[i:i+len(pat)]) == pat {
				hits++
				possum += int64(i)
			}
		}
		return fmt.Sprintf("strsearch %d\nplen %d\nhits %d\npossum %d\n", tlen, len(pat), hits, possum)
	},
}

// TestKernelsMatchOracles runs every kernel under the sysos OS and memory map
// and compares its console output byte-for-byte against the Go reference.
func TestKernelsMatchOracles(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			oracle, ok := oracles[k.Name]
			if !ok {
				t.Fatalf("no oracle for kernel %q", k.Name)
			}
			p, err := asm.Assemble(k.Source)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sysos.Run(p, k.Stdin, k.MaxInstrs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exited || res.ExitCode != 0 {
				t.Fatalf("exit = (%d, %v), want clean syscall exit", res.ExitCode, res.Exited)
			}
			if got, want := string(res.Output), oracle(); got != want {
				t.Fatalf("output mismatch\n got: %q\nwant: %q", got, want)
			}
			// The family must be substantial enough to be a benchmark, not
			// a smoke test, and must leave headroom under its own cap.
			if res.Count < 100_000 {
				t.Errorf("only %d dynamic instructions, want >= 100000", res.Count)
			}
			if res.Count >= int64(k.MaxInstrs) {
				t.Errorf("ran into the %d-instruction cap", k.MaxInstrs)
			}
			t.Logf("%s: %d dynamic instructions, %d output bytes", k.Name, res.Count, len(res.Output))
		})
	}
}

func TestKernelRunsAreDeterministic(t *testing.T) {
	for _, k := range kernels.All() {
		p, err := asm.Assemble(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sysos.Run(p, k.Stdin, k.MaxInstrs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sysos.Run(p, k.Stdin, k.MaxInstrs)
		if err != nil {
			t.Fatal(err)
		}
		if string(a.Output) != string(b.Output) || a.Count != b.Count {
			t.Errorf("%s: two runs differ (%d vs %d instrs)", k.Name, a.Count, b.Count)
		}
	}
}
