package tensor

import "cachebox/internal/obs"

// ConvOutSize returns the spatial output size of a convolution over an
// input of size in with the given kernel, stride and padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// ConvTransposeOutSize returns the spatial output size of a transposed
// convolution (the inverse of ConvOutSize).
func ConvTransposeOutSize(in, kernel, stride, pad int) int {
	return (in-1)*stride - 2*pad + kernel
}

// Im2col lowers a batch x [N,C,H,W] into one wide matrix cols
// [C*k*k, N*outH*outW], sample n's columns at offset n*outH*outW of
// every row, so convolving the whole batch is a single GEMM (larger
// batches amortise per-layer overhead — the batched-inference
// mechanism of paper RQ5). cols must be pre-sized; out-of-bounds
// (padding) taps contribute zeros.
func Im2col(cols, x []float32, n, c, h, w, kernel, stride, pad int) {
	l := obs.StartLeaf("tensor.im2col")
	defer l.End()
	outH := ConvOutSize(h, kernel, stride, pad)
	outW := ConvOutSize(w, kernel, stride, pad)
	outHW, rowLen := outH*outW, n*outH*outW
	for s := 0; s < n; s++ {
		xs := x[s*c*h*w : (s+1)*c*h*w]
		row := 0
		for ch := 0; ch < c; ch++ {
			base := ch * h * w
			for ky := 0; ky < kernel; ky++ {
				for kx := 0; kx < kernel; kx++ {
					dst := cols[row*rowLen+s*outHW : row*rowLen+(s+1)*outHW]
					i := 0
					for oy := 0; oy < outH; oy++ {
						sy := oy*stride - pad + ky
						if sy < 0 || sy >= h {
							for ox := 0; ox < outW; ox++ {
								dst[i] = 0
								i++
							}
							continue
						}
						srow := xs[base+sy*w : base+(sy+1)*w]
						for ox := 0; ox < outW; ox++ {
							sx := ox*stride - pad + kx
							if sx < 0 || sx >= w {
								dst[i] = 0
							} else {
								dst[i] = srow[sx]
							}
							i++
						}
					}
					row++
				}
			}
		}
	}
}

// Col2im scatters a wide column matrix cols [C*k*k, N*outH*outW] back
// into a batch x [N,C,H,W], accumulating overlapping taps — the adjoint
// of Im2col, used for conv backward and transposed-conv forward. x is
// not cleared; callers zero it first when appropriate.
func Col2im(x, cols []float32, n, c, h, w, kernel, stride, pad int) {
	l := obs.StartLeaf("tensor.col2im")
	defer l.End()
	outH := ConvOutSize(h, kernel, stride, pad)
	outW := ConvOutSize(w, kernel, stride, pad)
	outHW, rowLen := outH*outW, n*outH*outW
	for s := 0; s < n; s++ {
		xs := x[s*c*h*w : (s+1)*c*h*w]
		row := 0
		for ch := 0; ch < c; ch++ {
			base := ch * h * w
			for ky := 0; ky < kernel; ky++ {
				for kx := 0; kx < kernel; kx++ {
					src := cols[row*rowLen+s*outHW : row*rowLen+(s+1)*outHW]
					i := 0
					for oy := 0; oy < outH; oy++ {
						sy := oy*stride - pad + ky
						if sy < 0 || sy >= h {
							i += outW
							continue
						}
						xrow := xs[base+sy*w : base+(sy+1)*w]
						for ox := 0; ox < outW; ox++ {
							sx := ox*stride - pad + kx
							if sx >= 0 && sx < w {
								xrow[sx] += src[i]
							}
							i++
						}
					}
					row++
				}
			}
		}
	}
}
