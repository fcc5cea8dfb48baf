package nn

import (
	"math/rand"

	"cachebox/internal/tensor"
)

// Conv2d is a strided 2-D convolution over NCHW input. The batch is
// lowered with im2col into one wide matrix so the whole batch is a
// single GEMM (larger batches amortise per-layer overhead — the
// batched-inference mechanism of paper RQ5).
type Conv2d struct {
	InC, OutC, Kernel, Stride, Pad int

	W *Param // [OutC, InC*Kernel*Kernel]
	B *Param // [OutC]

	// cached for backward; cols doubles as the reused im2col buffer
	// (ensureTensor), so steady-state training allocates no im2col
	// scratch.
	cols       *tensor.Tensor // [InC*k*k, N*outHW]
	dcols      *tensor.Tensor // reused backward scratch, same shape
	inH, inW   int
	n          int
	outH, outW int

	qw *tensor.QuantMat // int8 weights [OutC, InC*k*k], set by PrepareQuant
}

// NewConv2d constructs the layer with Pix2Pix weight init.
func NewConv2d(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int) *Conv2d {
	c := &Conv2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		W: newParam(name+".w", outC, inC*kernel*kernel),
		B: newParam(name+".b", outC),
	}
	InitConv(rng, c.W.Value)
	return c
}

// Params implements Layer.
func (c *Conv2d) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer. x is [N, InC, H, W].
func (c *Conv2d) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkShape("Conv2d input", x.Shape, -1, c.InC, -1, -1)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	outHW := outH * outW
	ckk := c.InC * c.Kernel * c.Kernel
	cols := ensureTensor(c.cols, ckk, n*outHW)
	tensor.Im2col(cols.Data, x.Data, n, c.InC, h, w, c.Kernel, c.Stride, c.Pad)
	y := tensor.MatMul(c.W.Value, cols) // [OutC, N*outHW]
	for oc := 0; oc < c.OutC; oc++ {
		b := c.B.Value.Data[oc]
		row := y.Data[oc*n*outHW : (oc+1)*n*outHW]
		for i := range row {
			row[i] += b
		}
	}
	c.cols, c.n, c.inH, c.inW, c.outH, c.outW = cols, n, h, w, outH, outW
	return ckToNCHW(y, n, c.OutC, outHW).Reshape(n, c.OutC, outH, outW)
}

// Backward implements Layer.
func (c *Conv2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, outHW := c.n, c.outH*c.outW
	checkShape("Conv2d grad", dy.Shape, n, c.OutC, c.outH, c.outW)
	dyCK := nchwToCK(dy.Reshape(n, c.OutC, outHW), n, c.OutC, outHW) // [OutC, N*outHW]
	// dW = dY × colsᵀ.
	c.W.Grad.AddInPlace(tensor.MatMulABT(dyCK, c.cols))
	// dB = row sums of dY.
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for _, v := range dyCK.Data[oc*n*outHW : (oc+1)*n*outHW] {
			s += float64(v)
		}
		c.B.Grad.Data[oc] += float32(s)
	}
	// dCols = Wᵀ × dY into the reused scratch, then scatter the batch.
	dcols := ensureTensor(c.dcols, c.InC*c.Kernel*c.Kernel, n*outHW)
	tensor.MatMulATBInto(dcols, c.W.Value, dyCK, false)
	c.dcols = dcols
	dx := tensor.New(n, c.InC, c.inH, c.inW)
	tensor.Col2im(dx.Data, dcols.Data, n, c.InC, c.inH, c.inW, c.Kernel, c.Stride, c.Pad)
	return dx
}

// ConvTranspose2d is a strided transposed convolution (the Pix2Pix
// up-sampling block), implemented as the exact adjoint of Conv2d:
// forward scatters with col2im, backward gathers with im2col.
type ConvTranspose2d struct {
	InC, OutC, Kernel, Stride, Pad int

	W *Param // [InC, OutC*Kernel*Kernel]
	B *Param // [OutC]

	xCK        *tensor.Tensor // cached input as [InC, N*HW]
	cols       *tensor.Tensor // reused forward scratch [OutC*k*k, N*HW]
	dcols      *tensor.Tensor // reused backward scratch, same shape
	n          int
	inH, inW   int
	outH, outW int

	qwt *tensor.QuantMat // transposed int8 weights [OutC*k*k, InC], set by PrepareQuant
}

// NewConvTranspose2d constructs the layer with Pix2Pix weight init.
func NewConvTranspose2d(rng *rand.Rand, name string, inC, outC, kernel, stride, pad int) *ConvTranspose2d {
	c := &ConvTranspose2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		W: newParam(name+".w", inC, outC*kernel*kernel),
		B: newParam(name+".b", outC),
	}
	InitConv(rng, c.W.Value)
	return c
}

// Params implements Layer.
func (c *ConvTranspose2d) Params() []*Param { return []*Param{c.W, c.B} }

// Forward implements Layer. x is [N, InC, H, W].
func (c *ConvTranspose2d) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkShape("ConvTranspose2d input", x.Shape, -1, c.InC, -1, -1)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	outH := tensor.ConvTransposeOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvTransposeOutSize(w, c.Kernel, c.Stride, c.Pad)
	xCK := nchwToCK(x.Reshape(n, c.InC, hw), n, c.InC, hw) // [InC, N*HW]
	cols := ensureTensor(c.cols, c.OutC*c.Kernel*c.Kernel, n*hw)
	tensor.MatMulATBInto(cols, c.W.Value, xCK, false)
	c.cols = cols
	y := tensor.New(n, c.OutC, outH, outW)
	tensor.Col2im(y.Data, cols.Data, n, c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	for in := 0; in < n; in++ {
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B.Value.Data[oc]
			row := y.Data[(in*c.OutC+oc)*outH*outW : (in*c.OutC+oc+1)*outH*outW]
			for i := range row {
				row[i] += b
			}
		}
	}
	c.xCK, c.n, c.inH, c.inW, c.outH, c.outW = xCK, n, h, w, outH, outW
	return y
}

// Backward implements Layer.
func (c *ConvTranspose2d) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, hw := c.n, c.inH*c.inW
	checkShape("ConvTranspose2d grad", dy.Shape, n, c.OutC, c.outH, c.outW)
	ckk := c.OutC * c.Kernel * c.Kernel
	dcols := ensureTensor(c.dcols, ckk, n*hw)
	c.dcols = dcols
	tensor.Im2col(dcols.Data, dy.Data, n, c.OutC, c.outH, c.outW, c.Kernel, c.Stride, c.Pad)
	// dW = x × dcolsᵀ.
	c.W.Grad.AddInPlace(tensor.MatMulABT(c.xCK, dcols))
	// dB = sums over dy per out channel.
	ohw := c.outH * c.outW
	for oc := 0; oc < c.OutC; oc++ {
		var s float64
		for in := 0; in < n; in++ {
			for _, v := range dy.Data[(in*c.OutC+oc)*ohw : (in*c.OutC+oc+1)*ohw] {
				s += float64(v)
			}
		}
		c.B.Grad.Data[oc] += float32(s)
	}
	// dx = W × dcols, back to NCHW.
	dxCK := tensor.MatMul(c.W.Value, dcols) // [InC, N*HW]
	return ckToNCHW(dxCK, n, c.InC, hw).Reshape(n, c.InC, c.inH, c.inW)
}
