package nn

import "cachebox/internal/tensor"

// Quantized inference path. PrepareQuant calibrates int8 weights from
// the layer's float32 parameters (per-tensor symmetric scale — a pure
// function of the weights, so nothing changes in the model file
// format); ForwardQ8 then runs the layer with dynamically quantized
// activations through tensor.GemmQ8. The q8 path is inference-only: it
// never caches activations for backward and never touches gradients.
// Transient buffers come from the tensor scratch arena, so steady-state
// quantized prediction allocates only its output tensors.

// PrepareQuant calibrates the int8 weight panel for Conv2d.
func (c *Conv2d) PrepareQuant() { c.qw = tensor.QuantizeTensor(c.W.Value) }

// ForwardQ8 is the int8 inference forward. x is [N, InC, H, W].
func (c *Conv2d) ForwardQ8(x *tensor.Tensor) *tensor.Tensor {
	checkShape("Conv2d input", x.Shape, -1, c.InC, -1, -1)
	mustValidShape(c.qw != nil, "nn: Conv2d %s: ForwardQ8 before PrepareQuant", c.W.Name)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	outH := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	outHW := outH * outW
	ckk := c.InC * c.Kernel * c.Kernel

	colsS := tensor.GetScratch(ckk * n * outHW)
	tensor.Im2col(colsS.Data, x.Data, n, c.InC, h, w, c.Kernel, c.Stride, c.Pad)
	qcolsS := tensor.GetScratchQ8(ckk * n * outHW)
	sx := tensor.QuantizeSymmetric(qcolsS.Data, colsS.Data)
	colsS.Release()

	yS := tensor.GetScratch(c.OutC * n * outHW)
	tensor.GemmQ8(yS.Data, c.qw.Data, qcolsS.Data, c.OutC, ckk, n*outHW, c.qw.Scale*sx, false)
	qcolsS.Release()
	for oc := 0; oc < c.OutC; oc++ {
		b := c.B.Value.Data[oc]
		row := yS.Data[oc*n*outHW : (oc+1)*n*outHW]
		for i := range row {
			row[i] += b
		}
	}
	out := ckToNCHW(tensor.FromSlice(yS.Data, c.OutC, n*outHW), n, c.OutC, outHW)
	yS.Release()
	return out.Reshape(n, c.OutC, outH, outW)
}

// PrepareQuant calibrates the transposed int8 weight panel for
// ConvTranspose2d.
func (c *ConvTranspose2d) PrepareQuant() { c.qwt = tensor.QuantizeTensorT(c.W.Value) }

// ForwardQ8 is the int8 inference forward. x is [N, InC, H, W].
func (c *ConvTranspose2d) ForwardQ8(x *tensor.Tensor) *tensor.Tensor {
	checkShape("ConvTranspose2d input", x.Shape, -1, c.InC, -1, -1)
	mustValidShape(c.qwt != nil, "nn: ConvTranspose2d %s: ForwardQ8 before PrepareQuant", c.W.Name)
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	hw := h * w
	outH := tensor.ConvTransposeOutSize(h, c.Kernel, c.Stride, c.Pad)
	outW := tensor.ConvTransposeOutSize(w, c.Kernel, c.Stride, c.Pad)
	xCK := nchwToCK(x.Reshape(n, c.InC, hw), n, c.InC, hw) // [InC, N*HW]
	qxS := tensor.GetScratchQ8(len(xCK.Data))
	sx := tensor.QuantizeSymmetric(qxS.Data, xCK.Data)

	ckk := c.OutC * c.Kernel * c.Kernel
	colsS := tensor.GetScratch(ckk * n * hw)
	tensor.GemmQ8(colsS.Data, c.qwt.Data, qxS.Data, ckk, c.InC, n*hw, c.qwt.Scale*sx, false)
	qxS.Release()

	y := tensor.New(n, c.OutC, outH, outW)
	tensor.Col2im(y.Data, colsS.Data, n, c.OutC, outH, outW, c.Kernel, c.Stride, c.Pad)
	colsS.Release()
	for in := 0; in < n; in++ {
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B.Value.Data[oc]
			row := y.Data[(in*c.OutC+oc)*outH*outW : (in*c.OutC+oc+1)*outH*outW]
			for i := range row {
				row[i] += b
			}
		}
	}
	return y
}

// PrepareQuant calibrates the transposed int8 weight panel for Dense.
func (d *Dense) PrepareQuant() { d.qwt = tensor.QuantizeTensorT(d.W.Value) }

// ForwardQ8 is the int8 inference forward. x is [N, In].
func (d *Dense) ForwardQ8(x *tensor.Tensor) *tensor.Tensor {
	checkShape("Dense input", x.Shape, -1, d.In)
	mustValidShape(d.qwt != nil, "nn: Dense %s: ForwardQ8 before PrepareQuant", d.W.Name)
	n := x.Shape[0]
	qxS := tensor.GetScratchQ8(len(x.Data))
	sx := tensor.QuantizeSymmetric(qxS.Data, x.Data)
	y := tensor.New(n, d.Out)
	tensor.GemmQ8(y.Data, qxS.Data, d.qwt.Data, n, d.In, d.Out, d.qwt.Scale*sx, false)
	qxS.Release()
	for i := 0; i < n; i++ {
		row := y.Data[i*d.Out : (i+1)*d.Out]
		for j := range row {
			row[j] += d.B.Value.Data[j]
		}
	}
	return y
}
