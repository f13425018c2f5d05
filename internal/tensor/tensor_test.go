package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 {
		t.Fatalf("rank = %d, want 3", x.Rank())
	}
	if x.Size() != 24 {
		t.Fatalf("size = %d, want 24", x.Size())
	}
	got := x.Shape()
	want := []int{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shape = %v, want %v", got, want)
		}
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("New not zero-filled: %v", v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	// Row-major layout: element (1,2) of a 3x4 is flat index 6.
	if x.Data()[6] != 7.5 {
		t.Fatalf("row-major layout violated: data=%v", x.Data())
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestFullAndOnes(t *testing.T) {
	x := Full(3.25, 2, 2)
	for _, v := range x.Data() {
		if v != 3.25 {
			t.Fatalf("Full element = %v", v)
		}
	}
	if got := Ones(5).Sum(); got != 5 {
		t.Fatalf("Ones(5).Sum() = %v, want 5", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	c := x.Clone()
	c.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Fatal("Reshape should be a view sharing storage")
	}
}

func TestReshapeInfersDimension(t *testing.T) {
	x := New(4, 6)
	y := x.Reshape(-1, 8)
	if y.Dim(0) != 3 || y.Dim(1) != 8 {
		t.Fatalf("inferred shape = %v, want [3 8]", y.Shape())
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{4, 3, 2, 1}, 2, 2)
	if got := a.Add(b); !got.Equal(Full(5, 2, 2)) {
		t.Fatalf("Add = %v", got.Data())
	}
	if got := a.Sub(b).Data(); got[0] != -3 || got[3] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b).Sum(); got != 4+6+6+4 {
		t.Fatalf("Mul sum = %v", got)
	}
	if got := a.Scale(2).Sum(); got != 20 {
		t.Fatalf("Scale sum = %v", got)
	}
	if got := a.AddScalar(1).Sum(); got != 14 {
		t.Fatalf("AddScalar sum = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{11, 22}, 2)
	a.ScaleInPlace(0.5)
	if a.Data()[0] != 5.5 || a.Data()[1] != 11 {
		t.Fatalf("ScaleInPlace = %v", a.Data())
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4, 1}, 2, 2)
	if x.Sum() != 7 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1.75 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 {
		t.Fatalf("Max = %v", x.Max())
	}
	if x.Min() != -1 {
		t.Fatalf("Min = %v", x.Min())
	}
	if got := x.Norm(); math.Abs(got-math.Sqrt(27)) > 1e-12 {
		t.Fatalf("Norm = %v", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float64{0.1, 0.9, 0.0, 0.5, 0.2, 0.3}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	s := x.SumRowsInto(Full(42, 1, 2)) // stale contents must be overwritten
	if s.At(0, 0) != 4 || s.At(0, 1) != 6 {
		t.Fatalf("SumRowsInto = %v", s.Data())
	}
	v := FromSlice([]float64{10, 20}, 2)
	if y := x.AddRowVectorInPlace(v); y != x || x.At(0, 0) != 11 || x.At(1, 1) != 24 {
		t.Fatalf("AddRowVectorInPlace = %v", x.Data())
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose()
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Transpose shape = %v", y.Shape())
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", y.Data())
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float64{1, 1, 1, 1000, 0, 0}, 2, 3)
	s := x.SoftmaxRows()
	for r := 0; r < 2; r++ {
		sum := 0.0
		for c := 0; c < 3; c++ {
			v := s.At(r, c)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range or NaN: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("softmax row %d sums to %v", r, sum)
		}
	}
	if s.At(0, 0) != s.At(0, 1) {
		t.Fatal("uniform logits should give uniform softmax")
	}
	if s.At(1, 0) < 0.99 {
		t.Fatal("dominant logit should dominate softmax")
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AllClose(b, 1e-5) {
		t.Fatal("AllClose should tolerate small differences")
	}
	if a.AllClose(New(3), 1) {
		t.Fatal("AllClose must reject shape mismatch")
	}
}

func TestStringRendering(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if small.String() == "" {
		t.Fatal("empty String for small tensor")
	}
	large := New(100)
	if large.String() == "" {
		t.Fatal("empty String for large tensor")
	}
}
