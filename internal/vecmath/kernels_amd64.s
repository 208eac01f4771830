// AVX2/FMA kernels for the SGD hot path, both precisions.
//
// Layout rules (see DESIGN.md §9): rows are ordinary Go slices — 8-byte
// aligned, not 32 — so every vector access is unaligned (VMOVUPS/UPD);
// callers pass the base pointer and element count and the kernels never
// touch memory outside [ptr, ptr+n). All functions are NOSPLIT leaf
// routines with no stack frame, and every exit runs VZEROUPPER so mixed
// SSE code after a call pays no AVX transition penalty. Loop heads sit
// behind PCALIGN $32 and new kernels go at the end of the file, so
// growth elsewhere does not move a loop across a fetch window.
//
// Numerics: the dot products accumulate into 4 YMM registers (16 f64 /
// 32 f32 partial sums) with fused multiply-adds, so results differ from
// the reference implementations in summation order and intermediate
// rounding — kernels_asm_test.go bounds the difference by standard
// summation-error analysis. The SGD update keeps the reference
// association ((w + sg·h) − sl·w) but fuses each multiply-add.

#include "textflag.h"

// ---------------------------------------------------------------------
// float64
// ---------------------------------------------------------------------

// dot product loop body: accumulates a[0:n]·b[0:n] into X0 (low lane).
// Clobbers SI, DI, CX, Y0-Y7. Shared textually by dotAVX and fstepAVX.
// The single-pass 8-wide stage keeps two FMA chains in flight for the
// small ranks (K=8, and the n mod 16 ≥ 8 tails) instead of serializing
// two 4-wide iterations on one accumulator.
#define DOT64(lblk, loct, lquad, lred, lsca, ldone)   \
	VXORPD X0, X0, X0                             \
	VXORPD X1, X1, X1                             \
	VXORPD X2, X2, X2                             \
	VXORPD X3, X3, X3                             \
	PCALIGN $32                                   \
lblk:                                                 \
	CMPQ CX, $16                                  \
	JLT  loct                                     \
	VMOVUPD (SI), Y4                              \
	VMOVUPD 32(SI), Y5                            \
	VMOVUPD 64(SI), Y6                            \
	VMOVUPD 96(SI), Y7                            \
	VFMADD231PD (DI), Y4, Y0                      \
	VFMADD231PD 32(DI), Y5, Y1                    \
	VFMADD231PD 64(DI), Y6, Y2                    \
	VFMADD231PD 96(DI), Y7, Y3                    \
	ADDQ $128, SI                                 \
	ADDQ $128, DI                                 \
	SUBQ $16, CX                                  \
	JMP  lblk                                     \
loct:                                                 \
	CMPQ CX, $8                                   \
	JLT  lquad                                    \
	VMOVUPD (SI), Y4                              \
	VMOVUPD 32(SI), Y5                            \
	VFMADD231PD (DI), Y4, Y0                      \
	VFMADD231PD 32(DI), Y5, Y1                    \
	ADDQ $64, SI                                  \
	ADDQ $64, DI                                  \
	SUBQ $8, CX                                   \
lquad:                                                \
	CMPQ CX, $4                                   \
	JLT  lred                                     \
	VMOVUPD (SI), Y4                              \
	VFMADD231PD (DI), Y4, Y0                      \
	ADDQ $32, SI                                  \
	ADDQ $32, DI                                  \
	SUBQ $4, CX                                   \
	JMP  lquad                                    \
lred:                                                 \
	VADDPD Y1, Y0, Y0                             \
	VADDPD Y3, Y2, Y2                             \
	VADDPD Y2, Y0, Y0                             \
	VEXTRACTF128 $1, Y0, X1                       \
	VADDPD X1, X0, X0                             \
	VHADDPD X0, X0, X0                            \
lsca:                                                 \
	TESTQ CX, CX                                  \
	JEQ   ldone                                   \
	VMOVSD (SI), X4                               \
	VFMADD231SD (DI), X4, X0                      \
	ADDQ $8, SI                                   \
	ADDQ $8, DI                                   \
	DECQ CX                                       \
	JMP  lsca                                     \
ldone:

// func dotAVX(a, b *float64, n int) float64
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	DOT64(dblk, doct, dquad, dred, dsca, ddone)
	VZEROUPPER
	VMOVSD X0, ret+24(FP)
	RET

// SGD update loop body: the simultaneous row update
//
//	w[l] = w[l] + sg·h[l] − sl·w[l]
//	h[l] = h[l] + sg·w_old[l] − sl·h[l]
//
// over w[0:n], h[0:n]. Expects Y10/X10 = sg broadcast, Y11/X11 = sl
// broadcast. Clobbers SI, DI, CX, Y0-Y3, Y12-Y15 (X5 preserved: it
// carries fstepAVX's residual).
#define UPD64(loct, lquad, lsca, ldone)               \
	PCALIGN $32                                   \
loct:                                                 \
	CMPQ CX, $8                                   \
	JLT  lquad                                    \
	VMOVUPD (SI), Y0                              \
	VMOVUPD 32(SI), Y1                            \
	VMOVUPD (DI), Y2                              \
	VMOVUPD 32(DI), Y3                            \
	VMOVAPD Y0, Y12                               \
	VFMADD231PD Y10, Y2, Y12                      \
	VFNMADD231PD Y11, Y0, Y12                     \
	VMOVAPD Y2, Y13                               \
	VFMADD231PD Y10, Y0, Y13                      \
	VFNMADD231PD Y11, Y2, Y13                     \
	VMOVAPD Y1, Y14                               \
	VFMADD231PD Y10, Y3, Y14                      \
	VFNMADD231PD Y11, Y1, Y14                     \
	VMOVAPD Y3, Y15                               \
	VFMADD231PD Y10, Y1, Y15                      \
	VFNMADD231PD Y11, Y3, Y15                     \
	VMOVUPD Y12, (SI)                             \
	VMOVUPD Y13, (DI)                             \
	VMOVUPD Y14, 32(SI)                           \
	VMOVUPD Y15, 32(DI)                           \
	ADDQ $64, SI                                  \
	ADDQ $64, DI                                  \
	SUBQ $8, CX                                   \
	JMP  loct                                     \
lquad:                                                \
	CMPQ CX, $4                                   \
	JLT  lsca                                     \
	VMOVUPD (SI), Y0                              \
	VMOVUPD (DI), Y2                              \
	VMOVAPD Y0, Y12                               \
	VFMADD231PD Y10, Y2, Y12                      \
	VFNMADD231PD Y11, Y0, Y12                     \
	VMOVAPD Y2, Y13                               \
	VFMADD231PD Y10, Y0, Y13                      \
	VFNMADD231PD Y11, Y2, Y13                     \
	VMOVUPD Y12, (SI)                             \
	VMOVUPD Y13, (DI)                             \
	ADDQ $32, SI                                  \
	ADDQ $32, DI                                  \
	SUBQ $4, CX                                   \
lsca:                                                 \
	TESTQ CX, CX                                  \
	JEQ   ldone                                   \
	VMOVSD (SI), X0                               \
	VMOVSD (DI), X2                               \
	VMOVAPD X0, X12                               \
	VFMADD231SD X10, X2, X12                      \
	VFNMADD231SD X11, X0, X12                     \
	VMOVAPD X2, X13                               \
	VFMADD231SD X10, X0, X13                      \
	VFNMADD231SD X11, X2, X13                     \
	VMOVSD X12, (SI)                              \
	VMOVSD X13, (DI)                              \
	ADDQ $8, SI                                   \
	ADDQ $8, DI                                   \
	DECQ CX                                       \
	JMP  lsca                                     \
ldone:

// func sgdAVX(w, h *float64, n int, sg, sl float64)
TEXT ·sgdAVX(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD sg+24(FP), Y10
	VBROADCASTSD sl+32(FP), Y11
	UPD64(soct, squad, ssca, sdone)
	VZEROUPPER
	RET

// func fstepAVX(w, h *float64, n int, rating, step, lambda float64) float64
//
// The fused square-loss step: e = rating − ⟨w,h⟩, then the simultaneous
// update with sg = step·e, sl = step·lambda. Returns e.
TEXT ·fstepAVX(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ n+16(FP), CX
	DOT64(fblk, fdoct, fquad, fred, fsca, fdot)
	// e = rating − dot; sg = step·e; sl = step·lambda
	VMOVSD rating+24(FP), X5
	VSUBSD X0, X5, X5
	VMOVSD step+32(FP), X6
	VMULSD X5, X6, X10
	VMULSD lambda+40(FP), X6, X11
	VBROADCASTSD X10, Y10
	VBROADCASTSD X11, Y11
	MOVQ w+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ n+16(FP), CX
	UPD64(foct, fuquad, fusca, fupd)
	VZEROUPPER
	VMOVSD X5, ret+48(FP)
	RET

// ---------------------------------------------------------------------
// float32
// ---------------------------------------------------------------------

// float32 dot loop body: accumulates into X0 lane 0. Clobbers SI, DI,
// CX, Y0-Y7. Like DOT64, a single-pass 16-wide stage keeps two FMA
// chains in flight for K=16 and the larger tails.
#define DOT32(lblk, lhex, loct, lred, lsca, ldone)    \
	VXORPS X0, X0, X0                             \
	VXORPS X1, X1, X1                             \
	VXORPS X2, X2, X2                             \
	VXORPS X3, X3, X3                             \
	PCALIGN $32                                   \
lblk:                                                 \
	CMPQ CX, $32                                  \
	JLT  lhex                                     \
	VMOVUPS (SI), Y4                              \
	VMOVUPS 32(SI), Y5                            \
	VMOVUPS 64(SI), Y6                            \
	VMOVUPS 96(SI), Y7                            \
	VFMADD231PS (DI), Y4, Y0                      \
	VFMADD231PS 32(DI), Y5, Y1                    \
	VFMADD231PS 64(DI), Y6, Y2                    \
	VFMADD231PS 96(DI), Y7, Y3                    \
	ADDQ $128, SI                                 \
	ADDQ $128, DI                                 \
	SUBQ $32, CX                                  \
	JMP  lblk                                     \
lhex:                                                 \
	CMPQ CX, $16                                  \
	JLT  loct                                     \
	VMOVUPS (SI), Y4                              \
	VMOVUPS 32(SI), Y5                            \
	VFMADD231PS (DI), Y4, Y0                      \
	VFMADD231PS 32(DI), Y5, Y1                    \
	ADDQ $64, SI                                  \
	ADDQ $64, DI                                  \
	SUBQ $16, CX                                  \
loct:                                                 \
	CMPQ CX, $8                                   \
	JLT  lred                                     \
	VMOVUPS (SI), Y4                              \
	VFMADD231PS (DI), Y4, Y0                      \
	ADDQ $32, SI                                  \
	ADDQ $32, DI                                  \
	SUBQ $8, CX                                   \
	JMP  loct                                     \
lred:                                                 \
	VADDPS Y1, Y0, Y0                             \
	VADDPS Y3, Y2, Y2                             \
	VADDPS Y2, Y0, Y0                             \
	VEXTRACTF128 $1, Y0, X1                       \
	VADDPS X1, X0, X0                             \
	VHADDPS X0, X0, X0                            \
	VHADDPS X0, X0, X0                            \
lsca:                                                 \
	TESTQ CX, CX                                  \
	JEQ   ldone                                   \
	VMOVSS (SI), X4                               \
	VFMADD231SS (DI), X4, X0                      \
	ADDQ $4, SI                                   \
	ADDQ $4, DI                                   \
	DECQ CX                                       \
	JMP  lsca                                     \
ldone:

// func dotAVX32(a, b *float32, n int) float32
TEXT ·dotAVX32(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	DOT32(dblk32, dhex32, doct32, dred32, dsca32, ddone32)
	VZEROUPPER
	VMOVSS X0, ret+24(FP)
	RET

// float32 SGD update loop body; expects Y10/X10 = sg, Y11/X11 = sl.
// Clobbers SI, DI, CX, Y0-Y3, Y12-Y15 (X5 preserved).
#define UPD32(lhex, loct, lsca, ldone)                \
	PCALIGN $32                                   \
lhex:                                                 \
	CMPQ CX, $16                                  \
	JLT  loct                                     \
	VMOVUPS (SI), Y0                              \
	VMOVUPS 32(SI), Y1                            \
	VMOVUPS (DI), Y2                              \
	VMOVUPS 32(DI), Y3                            \
	VMOVAPS Y0, Y12                               \
	VFMADD231PS Y10, Y2, Y12                      \
	VFNMADD231PS Y11, Y0, Y12                     \
	VMOVAPS Y2, Y13                               \
	VFMADD231PS Y10, Y0, Y13                      \
	VFNMADD231PS Y11, Y2, Y13                     \
	VMOVAPS Y1, Y14                               \
	VFMADD231PS Y10, Y3, Y14                      \
	VFNMADD231PS Y11, Y1, Y14                     \
	VMOVAPS Y3, Y15                               \
	VFMADD231PS Y10, Y1, Y15                      \
	VFNMADD231PS Y11, Y3, Y15                     \
	VMOVUPS Y12, (SI)                             \
	VMOVUPS Y13, (DI)                             \
	VMOVUPS Y14, 32(SI)                           \
	VMOVUPS Y15, 32(DI)                           \
	ADDQ $64, SI                                  \
	ADDQ $64, DI                                  \
	SUBQ $16, CX                                  \
	JMP  lhex                                     \
loct:                                                 \
	CMPQ CX, $8                                   \
	JLT  lsca                                     \
	VMOVUPS (SI), Y0                              \
	VMOVUPS (DI), Y2                              \
	VMOVAPS Y0, Y12                               \
	VFMADD231PS Y10, Y2, Y12                      \
	VFNMADD231PS Y11, Y0, Y12                     \
	VMOVAPS Y2, Y13                               \
	VFMADD231PS Y10, Y0, Y13                      \
	VFNMADD231PS Y11, Y2, Y13                     \
	VMOVUPS Y12, (SI)                             \
	VMOVUPS Y13, (DI)                             \
	ADDQ $32, SI                                  \
	ADDQ $32, DI                                  \
	SUBQ $8, CX                                   \
lsca:                                                 \
	TESTQ CX, CX                                  \
	JEQ   ldone                                   \
	VMOVSS (SI), X0                               \
	VMOVSS (DI), X2                               \
	VMOVAPS X0, X12                               \
	VFMADD231SS X10, X2, X12                      \
	VFNMADD231SS X11, X0, X12                     \
	VMOVAPS X2, X13                               \
	VFMADD231SS X10, X0, X13                      \
	VFNMADD231SS X11, X2, X13                     \
	VMOVSS X12, (SI)                              \
	VMOVSS X13, (DI)                              \
	ADDQ $4, SI                                   \
	ADDQ $4, DI                                   \
	DECQ CX                                       \
	JMP  lsca                                     \
ldone:

// func sgdAVX32(w, h *float32, n int, sg, sl float32)
TEXT ·sgdAVX32(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSS sg+24(FP), Y10
	VBROADCASTSS sl+28(FP), Y11
	UPD32(shex32, soct32, ssca32, sdone32)
	VZEROUPPER
	RET

// func fstepAVX32(w, h *float32, n int, rating, step, lambda float32) float32
TEXT ·fstepAVX32(SB), NOSPLIT, $0-44
	MOVQ w+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ n+16(FP), CX
	DOT32(fblk32, fdhex32, foct32, fred32, fsca32, fdot32)
	// e = rating − dot; sg = step·e; sl = step·lambda
	VMOVSS rating+24(FP), X5
	VSUBSS X0, X5, X5
	VMOVSS step+28(FP), X6
	VMULSS X5, X6, X10
	VMULSS lambda+32(FP), X6, X11
	VBROADCASTSS X10, Y10
	VBROADCASTSS X11, Y11
	MOVQ w+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ n+16(FP), CX
	UPD32(fhex32, fuoct32, fusca32, fupd32)
	VZEROUPPER
	VMOVSS X5, ret+40(FP)
	RET

// ---------------------------------------------------------------------
// batched dots (scan-shaped callers: the serving index)
// ---------------------------------------------------------------------

// The batched dots come in two addressings of one body: dotRowsAVX
// scores contiguous rows, dotGatherAVX rows picked from a table by
// index. ROW is the only difference: it runs at the head of every row
// and leaves DI at that row. CONTIGUOUS is empty, because scoring a row
// leaves DI at the next one. GATHER64/GATHER32 load the index idx[x]
// at AX, step AX to idx[x+1], and set DI = table + idx[x]·k·size
// (R14 = table, BX = k); an offset idx[x]·k past R15 = len(table) − k,
// compared unsigned so a negative index fails too, jumps to the
// function's gbad label instead.
#define CONTIGUOUS

#define GATHER64                                      \
	MOVLQSX (AX), DI                              \
	ADDQ $4, AX                                   \
	IMULQ BX, DI                                  \
	CMPQ DI, R15                                  \
	JHI  gbad                                     \
	LEAQ (R14)(DI*8), DI

#define GATHER32                                      \
	MOVLQSX (AX), DI                              \
	ADDQ $4, AX                                   \
	IMULQ BX, DI                                  \
	CMPQ DI, R15                                  \
	JHI  gbad                                     \
	LEAQ (R14)(DI*4), DI

// out[r] = ⟨user[0:k], row r⟩ for r in [0, n), n ≥ 1, each bit-identical
// to dotAVX on the same row. For k ≤ 32 the user row is loaded into
// Y8-Y15 once and every row is one pass of FMAs against memory; each
// user chunk feeds the accumulator DOT64 would have given it
// (16-blocks → Y0-Y3, the 8-wide stage → Y0,Y1, the 4-wide stage → Y0)
// and the reduction is DOT64's, so only the loads moved. Larger k runs
// DOT64 itself per row.
//
// Expects SI = user, DX = out, BX = k, R8 = n and whatever ROW reads;
// USER is the frame slot of the user pointer.
// Register roles on the k ≤ 32 path: R11 = k/16 (16-blocks: Y8-Y11,
// and Y12-Y15 when k = 32), R12 = 8-wide stage present (Y12,Y13),
// R13 = 4-wide stage present (Y14), R9/R10 = pointer to and count of
// the ≤ 3 scalar-tail user elements (read from memory).
#define DOTROWS64(ROW, USER)                          \
	CMPQ BX, $32                                  \
	JGT  rmem                                     \
	MOVQ BX, R11                                  \
	SHRQ $4, R11                                  \
	MOVQ BX, CX                                   \
	ANDQ $15, CX                                  \
	XORQ R12, R12                                 \
	XORQ R13, R13                                 \
	TESTQ R11, R11                                \
	JEQ  rloct                                    \
	VMOVUPD (SI), Y8                              \
	VMOVUPD 32(SI), Y9                            \
	VMOVUPD 64(SI), Y10                           \
	VMOVUPD 96(SI), Y11                           \
	ADDQ $128, SI                                 \
	CMPQ R11, $2                                  \
	JLT  rloct                                    \
	VMOVUPD (SI), Y12                             \
	VMOVUPD 32(SI), Y13                           \
	VMOVUPD 64(SI), Y14                           \
	VMOVUPD 96(SI), Y15                           \
	JMP  rloaded                                  \
rloct:                                                \
	CMPQ CX, $8                                   \
	JLT  rlquad                                   \
	VMOVUPD (SI), Y12                             \
	VMOVUPD 32(SI), Y13                           \
	ADDQ $64, SI                                  \
	SUBQ $8, CX                                   \
	MOVQ $1, R12                                  \
rlquad:                                               \
	CMPQ CX, $4                                   \
	JLT  rloaded                                  \
	VMOVUPD (SI), Y14                             \
	ADDQ $32, SI                                  \
	SUBQ $4, CX                                   \
	MOVQ $1, R13                                  \
rloaded:                                              \
	MOVQ SI, R9                                   \
	MOVQ CX, R10                                  \
	PCALIGN $32                                   \
rrow:                                                 \
	ROW                                           \
	VXORPD X0, X0, X0                             \
	VXORPD X1, X1, X1                             \
	VXORPD X2, X2, X2                             \
	VXORPD X3, X3, X3                             \
	TESTQ R11, R11                                \
	JEQ  roct                                     \
	VFMADD231PD (DI), Y8, Y0                      \
	VFMADD231PD 32(DI), Y9, Y1                    \
	VFMADD231PD 64(DI), Y10, Y2                   \
	VFMADD231PD 96(DI), Y11, Y3                   \
	ADDQ $128, DI                                 \
	CMPQ R11, $2                                  \
	JLT  roct                                     \
	VFMADD231PD (DI), Y12, Y0                     \
	VFMADD231PD 32(DI), Y13, Y1                   \
	VFMADD231PD 64(DI), Y14, Y2                   \
	VFMADD231PD 96(DI), Y15, Y3                   \
	ADDQ $128, DI                                 \
	JMP  rred                                     \
roct:                                                 \
	TESTQ R12, R12                                \
	JEQ  rquad                                    \
	VFMADD231PD (DI), Y12, Y0                     \
	VFMADD231PD 32(DI), Y13, Y1                   \
	ADDQ $64, DI                                  \
rquad:                                                \
	TESTQ R13, R13                                \
	JEQ  rred                                     \
	VFMADD231PD (DI), Y14, Y0                     \
	ADDQ $32, DI                                  \
rred:                                                 \
	VADDPD Y1, Y0, Y0                             \
	VADDPD Y3, Y2, Y2                             \
	VADDPD Y2, Y0, Y0                             \
	VEXTRACTF128 $1, Y0, X1                       \
	VADDPD X1, X0, X0                             \
	VHADDPD X0, X0, X0                            \
	MOVQ R9, SI                                   \
	MOVQ R10, CX                                  \
rsca:                                                 \
	TESTQ CX, CX                                  \
	JEQ  rstore                                   \
	VMOVSD (SI), X4                               \
	VFMADD231SD (DI), X4, X0                      \
	ADDQ $8, SI                                   \
	ADDQ $8, DI                                   \
	DECQ CX                                       \
	JMP  rsca                                     \
rstore:                                               \
	VMOVSD X0, (DX)                               \
	ADDQ $8, DX                                   \
	DECQ R8                                       \
	JNZ  rrow                                     \
	VZEROUPPER                                    \
	RET                                           \
rmem:                                                 \
	ROW                                           \
	MOVQ USER, SI                                 \
	MOVQ BX, CX                                   \
	DOT64(mblk, moct, mquad, mred, msca, mdone)   \
	VMOVSD X0, (DX)                               \
	ADDQ $8, DX                                   \
	DECQ R8                                       \
	JNZ  rmem                                     \
	VZEROUPPER                                    \
	RET

// The float32 twin of DOTROWS64, bit-identical to dotAVX32 per row.
// Register roles on the k ≤ 32 path: R11 = k/32 (the one 32-block:
// Y8-Y11), R12 = 16-wide stage present (Y12,Y13), R13 = 8-wide stage
// present (Y14), R9/R10 = pointer to and count of the ≤ 7 scalar-tail
// user elements.
#define DOTROWS32(ROW, USER)                          \
	CMPQ BX, $32                                  \
	JGT  rmem32                                   \
	MOVQ BX, R11                                  \
	SHRQ $5, R11                                  \
	MOVQ BX, CX                                   \
	ANDQ $31, CX                                  \
	XORQ R12, R12                                 \
	XORQ R13, R13                                 \
	TESTQ R11, R11                                \
	JEQ  rlhex32                                  \
	VMOVUPS (SI), Y8                              \
	VMOVUPS 32(SI), Y9                            \
	VMOVUPS 64(SI), Y10                           \
	VMOVUPS 96(SI), Y11                           \
	JMP  rloaded32                                \
rlhex32:                                              \
	CMPQ CX, $16                                  \
	JLT  rloct32                                  \
	VMOVUPS (SI), Y12                             \
	VMOVUPS 32(SI), Y13                           \
	ADDQ $64, SI                                  \
	SUBQ $16, CX                                  \
	MOVQ $1, R12                                  \
rloct32:                                              \
	CMPQ CX, $8                                   \
	JLT  rloaded32                                \
	VMOVUPS (SI), Y14                             \
	ADDQ $32, SI                                  \
	SUBQ $8, CX                                   \
	MOVQ $1, R13                                  \
rloaded32:                                            \
	MOVQ SI, R9                                   \
	MOVQ CX, R10                                  \
	PCALIGN $32                                   \
rrow32:                                               \
	ROW                                           \
	VXORPS X0, X0, X0                             \
	VXORPS X1, X1, X1                             \
	VXORPS X2, X2, X2                             \
	VXORPS X3, X3, X3                             \
	TESTQ R11, R11                                \
	JEQ  rhex32                                   \
	VFMADD231PS (DI), Y8, Y0                      \
	VFMADD231PS 32(DI), Y9, Y1                    \
	VFMADD231PS 64(DI), Y10, Y2                   \
	VFMADD231PS 96(DI), Y11, Y3                   \
	ADDQ $128, DI                                 \
	JMP  rred32                                   \
rhex32:                                               \
	TESTQ R12, R12                                \
	JEQ  roct32                                   \
	VFMADD231PS (DI), Y12, Y0                     \
	VFMADD231PS 32(DI), Y13, Y1                   \
	ADDQ $64, DI                                  \
roct32:                                               \
	TESTQ R13, R13                                \
	JEQ  rred32                                   \
	VFMADD231PS (DI), Y14, Y0                     \
	ADDQ $32, DI                                  \
rred32:                                               \
	VADDPS Y1, Y0, Y0                             \
	VADDPS Y3, Y2, Y2                             \
	VADDPS Y2, Y0, Y0                             \
	VEXTRACTF128 $1, Y0, X1                       \
	VADDPS X1, X0, X0                             \
	VHADDPS X0, X0, X0                            \
	VHADDPS X0, X0, X0                            \
	MOVQ R9, SI                                   \
	MOVQ R10, CX                                  \
rsca32:                                               \
	TESTQ CX, CX                                  \
	JEQ  rstore32                                 \
	VMOVSS (SI), X4                               \
	VFMADD231SS (DI), X4, X0                      \
	ADDQ $4, SI                                   \
	ADDQ $4, DI                                   \
	DECQ CX                                       \
	JMP  rsca32                                   \
rstore32:                                             \
	VMOVSS X0, (DX)                               \
	ADDQ $4, DX                                   \
	DECQ R8                                       \
	JNZ  rrow32                                   \
	VZEROUPPER                                    \
	RET                                           \
rmem32:                                               \
	ROW                                           \
	MOVQ USER, SI                                 \
	MOVQ BX, CX                                   \
	DOT32(mblk32, mhex32, moct32, mred32, msca32, mdone32) \
	VMOVSS X0, (DX)                               \
	ADDQ $4, DX                                   \
	DECQ R8                                       \
	JNZ  rmem32                                   \
	VZEROUPPER                                    \
	RET

// func dotRowsAVX(user, rows, out *float64, k, n int)
//
// out[r] = ⟨user[0:k], rows[r·k:(r+1)·k]⟩ for r in [0, n), n ≥ 1.
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-40
	MOVQ user+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ k+24(FP), BX
	MOVQ n+32(FP), R8
	DOTROWS64(CONTIGUOUS, user+0(FP))

// func dotRowsAVX32(user, rows, out *float32, k, n int)
//
// The float32 twin of dotRowsAVX.
TEXT ·dotRowsAVX32(SB), NOSPLIT, $0-40
	MOVQ user+0(FP), SI
	MOVQ rows+8(FP), DI
	MOVQ out+16(FP), DX
	MOVQ k+24(FP), BX
	MOVQ n+32(FP), R8
	DOTROWS32(CONTIGUOUS, user+0(FP))

// ---------------------------------------------------------------------
// prefetch
// ---------------------------------------------------------------------

// func prefetchT0(p unsafe.Pointer, n uintptr)
//
// Prefetches the lines at p, p+64, ... below p+n (n ≥ 1). A hint, not a
// load: it cannot fault and has no architectural effect.
TEXT ·prefetchT0(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
pfline:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	SUBQ $64, CX
	JGT  pfline
	RET

// ---------------------------------------------------------------------
// whole-list K=16 item passes (DESIGN.md §4 piece 5)
// ---------------------------------------------------------------------
//
// One call walks a rating list: bounds and step-table checks, the
// count increment, the 8-ahead row prefetch and the fused step all stay
// here, and the item row h never leaves its YMM registers between
// ratings. The arithmetic is fstepAVX's (fstepAVX32's) at n = 16,
// instruction for instruction with the same operand roles — the
// accumulators are zeroed and summed in the same order, the zero
// partial sums of the float32 reduction included — so a list run here
// is bit-identical to the same list run one fstepAVX call per rating.
// Only the loads moved: w is read once into Y4-Y7 (Y4,Y5) for both the
// dot and the update, h comes from registers.
//
// Stop-early contract: a kernel returns how many ratings it applied and
// stops before touching one whose user index is not in [0, rows) or
// whose count is not inside the step table (both compared unsigned, so
// negatives stop too). The Go wrappers run that one rating through the
// checked per-rating path and re-enter.

// One 4-lane quarter of the simultaneous update (UPD64's arithmetic):
// W is the loaded user quarter, H the register-resident item quarter,
// Y2 = sg, Y3 = sl.
#define UPDQ64(WP, OFF, W, H)                         \
	VMOVAPD W, Y0                                 \
	VFMADD231PD Y2, H, Y0                         \
	VFNMADD231PD Y3, W, Y0                        \
	VMOVAPD H, Y1                                 \
	VFMADD231PD Y2, W, Y1                         \
	VFNMADD231PD Y3, H, Y1                        \
	VMOVUPD Y0, OFF(WP)                           \
	VMOVAPD Y1, H

// UPDQ64 on 8 float32 lanes.
#define UPDQ32(WP, OFF, W, H)                         \
	VMOVAPS W, Y0                                 \
	VFMADD231PS Y2, H, Y0                         \
	VFNMADD231PS Y3, W, Y0                        \
	VMOVAPS H, Y1                                 \
	VFMADD231PS Y2, W, Y1                         \
	VFNMADD231PS Y3, H, Y1                        \
	VMOVUPS Y0, OFF(WP)                           \
	VMOVAPS Y1, H

// One float64 step on the row at WP against the item row in H0-H3,
// written back to both. T holds the rating's count (the step-table
// index). Clobbers Y0-Y7.
#define STEP16_64(WP, H0, H1, H2, H3, RATING, STEPS, T, LAMBDA) \
	VXORPD X0, X0, X0                             \
	VXORPD X1, X1, X1                             \
	VXORPD X2, X2, X2                             \
	VXORPD X3, X3, X3                             \
	VMOVUPD (WP), Y4                              \
	VMOVUPD 32(WP), Y5                            \
	VMOVUPD 64(WP), Y6                            \
	VMOVUPD 96(WP), Y7                            \
	VFMADD231PD H0, Y4, Y0                        \
	VFMADD231PD H1, Y5, Y1                        \
	VFMADD231PD H2, Y6, Y2                        \
	VFMADD231PD H3, Y7, Y3                        \
	VADDPD Y1, Y0, Y0                             \
	VADDPD Y3, Y2, Y2                             \
	VADDPD Y2, Y0, Y0                             \
	VEXTRACTF128 $1, Y0, X1                       \
	VADDPD X1, X0, X0                             \
	VHADDPD X0, X0, X0                            \
	VMOVSD RATING, X1                             \
	VSUBSD X0, X1, X1                             \
	VMOVSD (STEPS)(T*8), X0                       \
	VMULSD X1, X0, X2                             \
	VMULSD LAMBDA, X0, X3                         \
	VBROADCASTSD X2, Y2                           \
	VBROADCASTSD X3, Y3                           \
	UPDQ64(WP, 0, Y4, H0)                         \
	UPDQ64(WP, 32, Y5, H1)                        \
	UPDQ64(WP, 64, Y6, H2)                        \
	UPDQ64(WP, 96, Y7, H3)

// The float32 step: item row in H0,H1 (H2,H3 are unused: one signature
// for both precisions); the rating and the tabulated step are float64
// in memory and narrowed here, as the Go loop does.
#define STEP16_32(WP, H0, H1, H2, H3, RATING, STEPS, T, LAMBDA) \
	VXORPS X0, X0, X0                             \
	VXORPS X1, X1, X1                             \
	VXORPS X2, X2, X2                             \
	VXORPS X3, X3, X3                             \
	VMOVUPS (WP), Y4                              \
	VMOVUPS 32(WP), Y5                            \
	VFMADD231PS H0, Y4, Y0                        \
	VFMADD231PS H1, Y5, Y1                        \
	VADDPS Y1, Y0, Y0                             \
	VADDPS Y3, Y2, Y2                             \
	VADDPS Y2, Y0, Y0                             \
	VEXTRACTF128 $1, Y0, X1                       \
	VADDPS X1, X0, X0                             \
	VHADDPS X0, X0, X0                            \
	VHADDPS X0, X0, X0                            \
	VCVTSD2SS RATING, X1, X1                      \
	VSUBSS X0, X1, X1                             \
	VCVTSD2SS (STEPS)(T*8), X0, X0                \
	VMULSS X1, X0, X2                             \
	VMULSS LAMBDA, X0, X3                         \
	VBROADCASTSS X2, Y2                           \
	VBROADCASTSS X3, Y3                           \
	UPDQ32(WP, 0, Y4, H0)                         \
	UPDQ32(WP, 32, Y5, H1)

// Prefetch the user row itemPassAhead (8) ratings past X when the list
// (N ratings) reaches that far. SHIFT is log2 of the row size: a
// float64 row is two lines, a float32 row one. A hint only — a wild
// index prefetches a wild address and faults nothing.
#define AHEAD64(USERS, X, N, W, TMP, lskip)           \
	LEAQ 8(X), TMP                                \
	CMPQ TMP, N                                   \
	JGE  lskip                                    \
	MOVLQSX (USERS)(TMP*4), TMP                   \
	SHLQ $7, TMP                                  \
	PREFETCHT0 (W)(TMP*1)                         \
	PREFETCHT0 64(W)(TMP*1)                       \
lskip:

#define AHEAD32(USERS, X, N, W, TMP, lskip)           \
	LEAQ 8(X), TMP                                \
	CMPQ TMP, N                                   \
	JGE  lskip                                    \
	MOVLQSX (USERS)(TMP*4), TMP                   \
	SHLQ $6, TMP                                  \
	PREFETCHT0 (W)(TMP*1)                         \
lskip:

// The single-list loop on the registers of itemPass16AVX: STEP and
// AHEAD are the precision's step and look-ahead macros, SHIFT is log2
// of its row size.
#define ONELIST(STEP, AHEAD, SHIFT, LAMBDA, lloop, lskip, ldone) \
lloop:                                                \
	CMPQ AX, R12                                  \
	JGE  ldone                                    \
	AHEAD(R9, AX, R12, R8, SI, lskip)             \
	MOVLQSX (R9)(AX*4), SI                        \
	CMPQ SI, DX                                   \
	JAE  ldone                                    \
	MOVL (R11)(AX*4), CX                          \
	CMPQ CX, BX                                   \
	JAE  ldone                                    \
	INCL (R11)(AX*4)                              \
	SHLQ SHIFT, SI                                \
	ADDQ R8, SI                                   \
	STEP(SI, Y8, Y9, Y10, Y11, (R10)(AX*8), R13, CX, LAMBDA) \
	INCQ AX                                       \
	JMP  lloop                                    \
ldone:

// The two-list loop on the registers of itemPassPair16AVX; list B's
// item row is in B0-B3. Both ratings of an iteration are checked before
// either is applied.
#define TWOLIST(STEP, AHEAD, SHIFT, B0, B1, B2, B3, ROWS, NSTEPS, NA, NB, LAMBDA, lloop, lskipA, lskipB, ldone) \
lloop:                                                \
	CMPQ AX, R12                                  \
	JGE  ldone                                    \
	AHEAD(R9, AX, NA, R8, SI, lskipA)             \
	AHEAD(BX, AX, NB, R8, SI, lskipB)             \
	MOVLQSX (BX)(AX*4), SI                        \
	CMPQ SI, ROWS                                 \
	JAE  ldone                                    \
	MOVL (DI)(AX*4), CX                           \
	CMPQ CX, NSTEPS                               \
	JAE  ldone                                    \
	MOVLQSX (R9)(AX*4), SI                        \
	CMPQ SI, ROWS                                 \
	JAE  ldone                                    \
	MOVL (R11)(AX*4), CX                          \
	CMPQ CX, NSTEPS                               \
	JAE  ldone                                    \
	INCL (R11)(AX*4)                              \
	SHLQ SHIFT, SI                                \
	ADDQ R8, SI                                   \
	STEP(SI, Y8, Y9, Y10, Y11, (R10)(AX*8), R13, CX, LAMBDA) \
	MOVLQSX (BX)(AX*4), SI                        \
	MOVL (DI)(AX*4), CX                           \
	INCL (DI)(AX*4)                               \
	SHLQ SHIFT, SI                                \
	ADDQ R8, SI                                   \
	STEP(SI, B0, B1, B2, B3, (DX)(AX*8), R13, CX, LAMBDA) \
	INCQ AX                                       \
	JMP  lloop                                    \
ldone:

// func itemPass16AVX(w *float64, rows int, users *int32, vals *float64, counts *int32, n int, h *float64, lambda float64, steps *float64, nsteps int) int
//
// Registers: R8 = w, DX = rows, R9/R10/R11 = users/vals/counts,
// R12 = n, R13 = steps, BX = nsteps, DI = h, AX = x (ratings applied),
// SI = user index then row pointer, CX = count. Y8-Y11 = h.
TEXT ·itemPass16AVX(SB), NOSPLIT, $0-88
	MOVQ w+0(FP), R8
	MOVQ rows+8(FP), DX
	MOVQ users+16(FP), R9
	MOVQ vals+24(FP), R10
	MOVQ counts+32(FP), R11
	MOVQ n+40(FP), R12
	MOVQ h+48(FP), DI
	MOVQ steps+64(FP), R13
	MOVQ nsteps+72(FP), BX
	XORQ AX, AX
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VMOVUPD 64(DI), Y10
	VMOVUPD 96(DI), Y11
	PCALIGN $32
	ONELIST(STEP16_64, AHEAD64, $7, lambda+56(FP), ip64loop, ip64skip, ip64done)
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	VZEROUPPER
	MOVQ AX, ret+80(FP)
	RET

// func itemPass16AVX32(w *float32, rows int, users *int32, vals *float64, counts *int32, n int, h *float32, lambda float32, steps *float64, nsteps int) int
//
// itemPass16AVX on float32 rows: same registers, h in Y8,Y9.
TEXT ·itemPass16AVX32(SB), NOSPLIT, $0-88
	MOVQ w+0(FP), R8
	MOVQ rows+8(FP), DX
	MOVQ users+16(FP), R9
	MOVQ vals+24(FP), R10
	MOVQ counts+32(FP), R11
	MOVQ n+40(FP), R12
	MOVQ h+48(FP), DI
	MOVQ steps+64(FP), R13
	MOVQ nsteps+72(FP), BX
	XORQ AX, AX
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	PCALIGN $32
	ONELIST(STEP16_32, AHEAD32, $6, lambda+56(FP), ip32loop, ip32skip, ip32done)
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VZEROUPPER
	MOVQ AX, ret+80(FP)
	RET

// func itemPassPair16AVX(w *float64, rows int, steps *float64, nsteps int, lambda float64, usersA *int32, valsA *float64, countsA *int32, hA *float64, nA int, usersB *int32, valsB *float64, countsB *int32, hB *float64, nB int) int
//
// Two lists in lockstep, A[x] then B[x], for min(nA, nB) ratings: two
// independent dependency chains (through hA in Y8-Y11 and through hB
// in Y12-Y15) that the out-of-order core overlaps; program order is
// still A[x], B[x], so lists that share a user row stay correct. The
// return value x means A[0:x] and B[0:x] are applied and nothing else
// is touched. The look-ahead prefetch runs to each list's own end.
//
// Registers: R8 = w, R13 = steps, R12 = min(nA, nB), AX = x,
// R9/R10/R11 = usersA/valsA/countsA, BX/DX/DI = usersB/valsB/countsB,
// SI = user index then row pointer, CX = count; rows, nsteps, nA, nB,
// lambda, hA and hB are read from the frame.
TEXT ·itemPassPair16AVX(SB), NOSPLIT, $0-128
	MOVQ w+0(FP), R8
	MOVQ steps+16(FP), R13
	MOVQ usersA+40(FP), R9
	MOVQ valsA+48(FP), R10
	MOVQ countsA+56(FP), R11
	MOVQ usersB+80(FP), BX
	MOVQ valsB+88(FP), DX
	MOVQ countsB+96(FP), DI
	MOVQ nA+72(FP), R12
	MOVQ nB+112(FP), CX
	CMPQ CX, R12
	CMOVQLT CX, R12
	MOVQ hA+64(FP), SI
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 64(SI), Y10
	VMOVUPD 96(SI), Y11
	MOVQ hB+104(FP), SI
	VMOVUPD (SI), Y12
	VMOVUPD 32(SI), Y13
	VMOVUPD 64(SI), Y14
	VMOVUPD 96(SI), Y15
	XORQ AX, AX
	PCALIGN $32
	TWOLIST(STEP16_64, AHEAD64, $7, Y12, Y13, Y14, Y15, rows+8(FP), nsteps+24(FP), nA+72(FP), nB+112(FP), lambda+32(FP), pp64loop, pp64skipA, pp64skipB, pp64done)
	MOVQ hA+64(FP), SI
	VMOVUPD Y8, (SI)
	VMOVUPD Y9, 32(SI)
	VMOVUPD Y10, 64(SI)
	VMOVUPD Y11, 96(SI)
	MOVQ hB+104(FP), SI
	VMOVUPD Y12, (SI)
	VMOVUPD Y13, 32(SI)
	VMOVUPD Y14, 64(SI)
	VMOVUPD Y15, 96(SI)
	VZEROUPPER
	MOVQ AX, ret+120(FP)
	RET

// func itemPassPair16AVX32(w *float32, rows int, steps *float64, nsteps int, lambda float32, usersA *int32, valsA *float64, countsA *int32, hA *float32, nA int, usersB *int32, valsB *float64, countsB *int32, hB *float32, nB int) int
//
// itemPassPair16AVX on float32 rows: hA in Y8,Y9, hB in Y10,Y11.
TEXT ·itemPassPair16AVX32(SB), NOSPLIT, $0-128
	MOVQ w+0(FP), R8
	MOVQ steps+16(FP), R13
	MOVQ usersA+40(FP), R9
	MOVQ valsA+48(FP), R10
	MOVQ countsA+56(FP), R11
	MOVQ usersB+80(FP), BX
	MOVQ valsB+88(FP), DX
	MOVQ countsB+96(FP), DI
	MOVQ nA+72(FP), R12
	MOVQ nB+112(FP), CX
	CMPQ CX, R12
	CMOVQLT CX, R12
	MOVQ hA+64(FP), SI
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	MOVQ hB+104(FP), SI
	VMOVUPS (SI), Y10
	VMOVUPS 32(SI), Y11
	XORQ AX, AX
	PCALIGN $32
	TWOLIST(STEP16_32, AHEAD32, $6, Y10, Y11, Y10, Y11, rows+8(FP), nsteps+24(FP), nA+72(FP), nB+112(FP), lambda+32(FP), pp32loop, pp32skipA, pp32skipB, pp32done)
	MOVQ hA+64(FP), SI
	VMOVUPS Y8, (SI)
	VMOVUPS Y9, 32(SI)
	MOVQ hB+104(FP), SI
	VMOVUPS Y10, (SI)
	VMOVUPS Y11, 32(SI)
	VZEROUPPER
	MOVQ AX, ret+120(FP)
	RET

// ---------------------------------------------------------------------
// gathered batched dots (the test-split evaluator)
// ---------------------------------------------------------------------

// func dotGatherAVX(user, table *float64, idx *int32, out *float64, k, n, last int) bool
//
// out[x] = ⟨user[0:k], table[idx[x]·k:(idx[x]+1)·k]⟩ for x in [0, n),
// n ≥ 1: dotRowsAVX's body on rows picked by index. last = len(table)
// − k ≥ 0 bounds the offsets. Returns false, with out filled only up
// to the first bad index, if an index names no whole row of the table.
// R14 and R15 are scratch here: ABI0 code may clobber them, and the
// function touches no global.
TEXT ·dotGatherAVX(SB), NOSPLIT, $0-57
	MOVB $1, ret+56(FP)
	MOVQ user+0(FP), SI
	MOVQ table+8(FP), R14
	MOVQ idx+16(FP), AX
	MOVQ out+24(FP), DX
	MOVQ k+32(FP), BX
	MOVQ n+40(FP), R8
	MOVQ last+48(FP), R15
	DOTROWS64(GATHER64, user+0(FP))
gbad:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET

// func dotGatherAVX32(user, table *float32, idx *int32, out *float32, k, n, last int) bool
//
// The float32 twin of dotGatherAVX.
TEXT ·dotGatherAVX32(SB), NOSPLIT, $0-57
	MOVB $1, ret+56(FP)
	MOVQ user+0(FP), SI
	MOVQ table+8(FP), R14
	MOVQ idx+16(FP), AX
	MOVQ out+24(FP), DX
	MOVQ k+32(FP), BX
	MOVQ n+40(FP), R8
	MOVQ last+48(FP), R15
	DOTROWS32(GATHER32, user+0(FP))
gbad:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET
