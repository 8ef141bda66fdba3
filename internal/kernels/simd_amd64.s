//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Both bricks share one register plan. GP registers (R14, R15 and BP are
// left untouched — R14 is the goroutine register under the internal ABI):
//
//	DI  x tile pointer, advanced 64 bytes per 8-column tile
//	DX  v base pointer, advanced in lockstep with DI
//	R13 v row pointer inside the k loop (DX + k·vstride·8)
//	SI  b base (row 0 of the 4×klen scalar operands, read in place)
//	AX  b row-0 pointer inside the k loop (SI + k·8)
//	CX  b row-0 end pointer (SI + klen·8)
//	R10 bstride·8 (b row offset: row r scalar at AX + r·R10)
//	R11 3·bstride·8
//	R8  xstride·8
//	BX  3·xstride·8
//	R9  vstride·8
//	R12 remaining columns
//
// Vector registers: Y0–Y7 hold the 4×8 x block across the whole k loop
// (x is loaded and stored once per 8-column tile), Y8/Y9 the current v
// row pair, Y10 the broadcast scalar, Y11 the product/sum temporary.

#define LOAD_X \
	VMOVUPD (DI), Y0 \
	VMOVUPD 32(DI), Y1 \
	VMOVUPD (DI)(R8*1), Y2 \
	VMOVUPD 32(DI)(R8*1), Y3 \
	VMOVUPD (DI)(R8*2), Y4 \
	VMOVUPD 32(DI)(R8*2), Y5 \
	VMOVUPD (DI)(BX*1), Y6 \
	VMOVUPD 32(DI)(BX*1), Y7

#define STORE_X \
	VMOVUPD Y0, (DI) \
	VMOVUPD Y1, 32(DI) \
	VMOVUPD Y2, (DI)(R8*1) \
	VMOVUPD Y3, 32(DI)(R8*1) \
	VMOVUPD Y4, (DI)(R8*2) \
	VMOVUPD Y5, 32(DI)(R8*2) \
	VMOVUPD Y6, (DI)(BX*1) \
	VMOVUPD Y7, 32(DI)(BX*1)

// func minplusBrickAVX2(x, b, v []float64, xstride, bstride, vstride, klen, jlen int)
//
// x[r,j] = min(x[r,j], b[r,k] + v[k,j]). The VMINPD operand order below is
// Go syntax for Intel MINPD(src1 = t, src2 = x): on unordered or equal
// operands the instruction returns src2, i.e. x survives ties and NaN sums
// exactly like the scalar `if t := s + vj; t < x { x = t }`.
TEXT ·minplusBrickAVX2(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ xstride+72(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), BX
	MOVQ bstride+80(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ vstride+88(FP), R9
	SHLQ $3, R9
	MOVQ klen+96(FP), CX
	LEAQ (SI)(CX*8), CX
	MOVQ jlen+104(FP), R12

mp_jtile:
	LOAD_X
	MOVQ DX, R13
	MOVQ SI, AX

mp_kloop:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (AX), Y10
	VADDPD       Y8, Y10, Y11
	VMINPD       Y0, Y11, Y0
	VADDPD       Y9, Y10, Y11
	VMINPD       Y1, Y11, Y1
	VBROADCASTSD (AX)(R10*1), Y10
	VADDPD       Y8, Y10, Y11
	VMINPD       Y2, Y11, Y2
	VADDPD       Y9, Y10, Y11
	VMINPD       Y3, Y11, Y3
	VBROADCASTSD (AX)(R10*2), Y10
	VADDPD       Y8, Y10, Y11
	VMINPD       Y4, Y11, Y4
	VADDPD       Y9, Y10, Y11
	VMINPD       Y5, Y11, Y5
	VBROADCASTSD (AX)(R11*1), Y10
	VADDPD       Y8, Y10, Y11
	VMINPD       Y6, Y11, Y6
	VADDPD       Y9, Y10, Y11
	VMINPD       Y7, Y11, Y7
	ADDQ         R9, R13
	ADDQ         $8, AX
	CMPQ         AX, CX
	JCS          mp_kloop

	STORE_X
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, R12
	JGT  mp_jtile

	VZEROUPPER
	RET

// func gaussBrickAVX2(x, b, v []float64, xstride, bstride, vstride, klen, jlen int)
//
// x[r,j] -= b[r,k] * v[k,j], unfused multiply-then-subtract to match the
// scalar path bit for bit (gc does not contract mul-add on amd64). v is
// Intel's first multiply source, as in gc's `MULSD f, v`: when both are
// NaN the product carries v's payload on either path.
TEXT ·gaussBrickAVX2(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ xstride+72(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), BX
	MOVQ bstride+80(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ vstride+88(FP), R9
	SHLQ $3, R9
	MOVQ klen+96(FP), CX
	LEAQ (SI)(CX*8), CX
	MOVQ jlen+104(FP), R12

ge_jtile:
	LOAD_X
	MOVQ DX, R13
	MOVQ SI, AX

ge_kloop:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y10, Y8, Y11
	VSUBPD       Y11, Y0, Y0
	VMULPD       Y10, Y9, Y11
	VSUBPD       Y11, Y1, Y1
	VBROADCASTSD (AX)(R10*1), Y10
	VMULPD       Y10, Y8, Y11
	VSUBPD       Y11, Y2, Y2
	VMULPD       Y10, Y9, Y11
	VSUBPD       Y11, Y3, Y3
	VBROADCASTSD (AX)(R10*2), Y10
	VMULPD       Y10, Y8, Y11
	VSUBPD       Y11, Y4, Y4
	VMULPD       Y10, Y9, Y11
	VSUBPD       Y11, Y5, Y5
	VBROADCASTSD (AX)(R11*1), Y10
	VMULPD       Y10, Y8, Y11
	VSUBPD       Y11, Y6, Y6
	VMULPD       Y10, Y9, Y11
	VSUBPD       Y11, Y7, Y7
	ADDQ         R9, R13
	ADDQ         $8, AX
	CMPQ         AX, CX
	JCS          ge_kloop

	STORE_X
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, R12
	JGT  ge_jtile

	VZEROUPPER
	RET

// The two panels are the ordered counterpart of the bricks: one pivot k,
// rows [0,rows) in ascending order, every column of a row in its own
// lane. Register plan (shared):
//
//	DI  x row pointer, advanced xstride·8 per row
//	SI  u pointer (the row's scalar operand), advanced ustride·8 per row
//	DX  v row pointer (fixed: one pivot row per call)
//	R8  xstride·8      R9  ustride·8
//	R10 rows remaining R11 jlen
//	AX/BX x/v cursors inside a row, CX columns remaining
//
// Y15 holds the row's broadcast scalar, loaded BEFORE the row's first
// store (x may alias u: the row may overwrite its own u[i,k]); v is
// re-read from memory on every row (x may alias v: row k updates the
// pivot row the later rows must observe). Columns run 16, then 4, then 1
// at a time, so there is no Go-side tail.

// func minplusPanelAVX2(x, u, v []float64, xstride, ustride, rows, jlen int)
//
// x[r,j] = min(x[r,j], u[r] + v[j]); VMINPD/VMINSD operand order as in
// minplusBrickAVX2 (x is Intel's second source: it survives ties and NaN).
TEXT ·minplusPanelAVX2(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ xstride+72(FP), R8
	SHLQ $3, R8
	MOVQ ustride+80(FP), R9
	SHLQ $3, R9
	MOVQ rows+88(FP), R10
	MOVQ jlen+96(FP), R11

mpp_row:
	VBROADCASTSD (SI), Y15
	MOVQ         DI, AX
	MOVQ         DX, BX
	MOVQ         R11, CX
	SUBQ         $16, CX
	JLT          mpp_lt16

mpp_16:
	VADDPD  (BX), Y15, Y0
	VADDPD  32(BX), Y15, Y1
	VADDPD  64(BX), Y15, Y2
	VADDPD  96(BX), Y15, Y3
	VMINPD  (AX), Y0, Y0
	VMINPD  32(AX), Y1, Y1
	VMINPD  64(AX), Y2, Y2
	VMINPD  96(AX), Y3, Y3
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ    $128, AX
	ADDQ    $128, BX
	SUBQ    $16, CX
	JGE     mpp_16

mpp_lt16:
	ADDQ $12, CX
	JLT  mpp_lt4

mpp_4:
	VADDPD  (BX), Y15, Y0
	VMINPD  (AX), Y0, Y0
	VMOVUPD Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $4, CX
	JGE     mpp_4

mpp_lt4:
	ADDQ $4, CX
	JEQ  mpp_next

mpp_1:
	VADDSD (BX), X15, X0
	VMINSD (AX), X0, X0
	VMOVSD X0, (AX)
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   CX
	JNE    mpp_1

mpp_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNE  mpp_row

	VZEROUPPER
	RET

// func gaussPanelAVX2(x, u, v []float64, w float64, xstride, ustride, rows, jlen int)
//
// x[r,j] -= (u[r]/w) * v[j]: one VDIVSD per row (u is Intel's first
// source, as in the scalar `u / w`), then the unfused multiply-subtract
// of gaussBrickAVX2 with v as the multiply's first source.
TEXT ·gaussPanelAVX2(SB), NOSPLIT, $0-112
	MOVQ   x_base+0(FP), DI
	MOVQ   u_base+24(FP), SI
	MOVQ   v_base+48(FP), DX
	VMOVSD w+72(FP), X13
	MOVQ   xstride+80(FP), R8
	SHLQ   $3, R8
	MOVQ   ustride+88(FP), R9
	SHLQ   $3, R9
	MOVQ   rows+96(FP), R10
	MOVQ   jlen+104(FP), R11

gp_row:
	VMOVSD       (SI), X14
	VDIVSD       X13, X14, X14
	VBROADCASTSD X14, Y15
	MOVQ         DI, AX
	MOVQ         DX, BX
	MOVQ         R11, CX
	SUBQ         $16, CX
	JLT          gp_lt16

gp_16:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VSUBPD  Y0, Y4, Y4
	VSUBPD  Y1, Y5, Y5
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, 64(AX)
	VMOVUPD Y7, 96(AX)
	ADDQ    $128, AX
	ADDQ    $128, BX
	SUBQ    $16, CX
	JGE     gp_16

gp_lt16:
	ADDQ $12, CX
	JLT  gp_lt4

gp_4:
	VMOVUPD (BX), Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD (AX), Y4
	VSUBPD  Y0, Y4, Y4
	VMOVUPD Y4, (AX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $4, CX
	JGE     gp_4

gp_lt4:
	ADDQ $4, CX
	JEQ  gp_next

gp_1:
	VMOVSD (BX), X0
	VMULSD X15, X0, X0
	VMOVSD (AX), X4
	VSUBSD X0, X4, X4
	VMOVSD X4, (AX)
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   CX
	JNE    gp_1

gp_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNE  gp_row

	VZEROUPPER
	RET
