package collector

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
)

func nodeList(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(strings.Repeat("x", 1+i%3))
	}
	return out
}

func TestMatrixWeight(t *testing.T) {
	cases := []struct {
		n, m, want int
	}{
		{1, 1, 1},    // a one-cell batch costs like a point query
		{8, 8, 1},    // 64 cells still under one extra unit
		{16, 16, 2},  // 256 cells = 1 + 1
		{64, 64, 17}, // 4096 cells = 1 + 16
		{256, 256, 257},
	}
	for _, c := range cases {
		mr := &MatrixRequest{Srcs: nodeList(c.n), Dsts: nodeList(c.m)}
		if got := matrixWeight(mr); got != c.want {
			t.Errorf("matrixWeight(%dx%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
	if got := matrixWeight(nil); got != 1 {
		t.Errorf("matrixWeight(nil) = %d, want 1", got)
	}
}

func TestValidateMatrixRequest(t *testing.T) {
	ok := &MatrixRequest{Srcs: nodeList(2), Dsts: nodeList(3), TFKind: 2, Span: 10}
	if err := validateMatrixRequest(ok); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []*MatrixRequest{
		nil,
		{Dsts: nodeList(1)},
		{Srcs: nodeList(1)},
		{Srcs: nodeList(1), Dsts: nodeList(1), TFKind: -1},
		{Srcs: nodeList(1), Dsts: nodeList(1), TFKind: 4},
	}
	for i, mr := range bad {
		if err := validateMatrixRequest(mr); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, mr)
		}
	}
}

func TestCheckMatrixShape(t *testing.T) {
	mr := &MatrixRequest{Srcs: nodeList(2), Dsts: nodeList(3)}
	good := &MatrixAnswer{
		Bandwidth: [][]float64{{1, 2, 3}, {4, 5, 6}},
		Latency:   [][]float64{{1, 2, 3}, {4, 5, 6}},
		Valid:     [][]bool{{true, true, true}, {true, true, true}},
	}
	if err := checkMatrixShape(mr, good); err != nil {
		t.Fatalf("well-shaped answer rejected: %v", err)
	}
	missingRow := &MatrixAnswer{
		Bandwidth: [][]float64{{1, 2, 3}},
		Latency:   [][]float64{{1, 2, 3}},
		Valid:     [][]bool{{true, true, true}},
	}
	if err := checkMatrixShape(mr, missingRow); err == nil {
		t.Fatal("short answer accepted")
	}
	raggedCol := &MatrixAnswer{
		Bandwidth: [][]float64{{1, 2, 3}, {4, 5}},
		Latency:   [][]float64{{1, 2, 3}, {4, 5, 6}},
		Valid:     [][]bool{{true, true, true}, {true, true, true}},
	}
	if err := checkMatrixShape(mr, raggedCol); err == nil {
		t.Fatal("ragged answer accepted")
	}
}

// FuzzDecodeMatrixRequest hammers the matrix-op decode path: any byte
// string the frame decoder accepts as a matrix-carrying request must
// survive validation and admission pricing without panicking, and must
// re-encode. Seeds cover the representative shapes plus hostile sizes.
func FuzzDecodeMatrixRequest(f *testing.F) {
	add := func(mr *MatrixRequest) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, reqFrame(&request{Op: "matrix", Matrix: mr}), 0); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	add(&MatrixRequest{Srcs: []graph.NodeID{"m-1"}, Dsts: []graph.NodeID{"m-2"}, TFKind: 0})
	add(&MatrixRequest{Srcs: nodeList(8), Dsts: nodeList(8), TFKind: 2, Span: 10})
	add(&MatrixRequest{Srcs: nodeList(3), Dsts: nodeList(5), TFKind: 3, Horizon: 30})
	add(&MatrixRequest{TFKind: -7})
	add(&MatrixRequest{Srcs: nodeList(64), Dsts: nodeList(64), TFKind: 1, Span: -1e300})
	add(nil)

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var mf muxFrame
		if err := readFrame(bytes.NewReader(data), &mf, maxFrame); err != nil || mf.Req == nil {
			return
		}
		req := mf.Req
		// Whatever decoded must price and validate without panics …
		_ = matrixWeight(req.Matrix)
		verr := validateMatrixRequest(req.Matrix)
		if verr == nil {
			if len(req.Matrix.Srcs) == 0 || len(req.Matrix.Dsts) == 0 {
				t.Fatalf("validation accepted an empty side: %+v", req.Matrix)
			}
		}
		// … and an accepted frame must be re-encodable.
		var out bytes.Buffer
		if err := writeFrame(&out, &mf, 0); err != nil {
			t.Fatalf("accepted matrix request does not re-encode: %v (%+v)", err, req)
		}
	})
}
