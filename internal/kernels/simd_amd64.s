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

// The AVX-512 bricks keep the AVX2 bricks' GP register plan (R14, R15
// and BP untouched), with DI/DX advanced 128 bytes per 16-column tile.
// Vector registers:
//
//	Z0–Z7   the 4×16 x block, two ZMM per row, held across the k loop
//	Z8/Z9   the current v row (16 columns)
//	Z10–Z13 the four rows' broadcast scalars b[r,k]
//	Z14–Z21 one sum/product temporary per x register
//
// Every instruction uses AVX-512F only. Each lane computes what the AVX2
// brick's lane computes, with the same operand order, so the two tiers
// write the same bits.

#define LOAD_XZ \
	VMOVUPD (DI), Z0 \
	VMOVUPD 64(DI), Z1 \
	VMOVUPD (DI)(R8*1), Z2 \
	VMOVUPD 64(DI)(R8*1), Z3 \
	VMOVUPD (DI)(R8*2), Z4 \
	VMOVUPD 64(DI)(R8*2), Z5 \
	VMOVUPD (DI)(BX*1), Z6 \
	VMOVUPD 64(DI)(BX*1), Z7

#define STORE_XZ \
	VMOVUPD Z0, (DI) \
	VMOVUPD Z1, 64(DI) \
	VMOVUPD Z2, (DI)(R8*1) \
	VMOVUPD Z3, 64(DI)(R8*1) \
	VMOVUPD Z4, (DI)(R8*2) \
	VMOVUPD Z5, 64(DI)(R8*2) \
	VMOVUPD Z6, (DI)(BX*1) \
	VMOVUPD Z7, 64(DI)(BX*1)

// LOAD_KSTEP loads one pivot's v row into Z8/Z9 and the four rows'
// scalars into Z10–Z13, then steps the v and b cursors to the next pivot.
#define LOAD_KSTEP \
	VMOVUPD      (R13), Z8 \
	VMOVUPD      64(R13), Z9 \
	VBROADCASTSD (AX), Z10 \
	VBROADCASTSD (AX)(R10*1), Z11 \
	VBROADCASTSD (AX)(R10*2), Z12 \
	VBROADCASTSD (AX)(R11*1), Z13 \
	ADDQ         R9, R13 \
	ADDQ         $8, AX

// func minplusBrickAVX512(x, b, v []float64, xstride, bstride, vstride, klen, jlen int)
//
// minplusBrickAVX2's lane expression: VADDPD with the broadcast scalar
// as the first source, then VMINPD(t, x), so x survives ties and NaN.
TEXT ·minplusBrickAVX512(SB), NOSPLIT, $0-112
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

mpz_jtile:
	LOAD_XZ
	MOVQ DX, R13
	MOVQ SI, AX

mpz_kloop:
	LOAD_KSTEP
	VADDPD Z8, Z10, Z14
	VADDPD Z9, Z10, Z15
	VADDPD Z8, Z11, Z16
	VADDPD Z9, Z11, Z17
	VADDPD Z8, Z12, Z18
	VADDPD Z9, Z12, Z19
	VADDPD Z8, Z13, Z20
	VADDPD Z9, Z13, Z21
	VMINPD Z0, Z14, Z0
	VMINPD Z1, Z15, Z1
	VMINPD Z2, Z16, Z2
	VMINPD Z3, Z17, Z3
	VMINPD Z4, Z18, Z4
	VMINPD Z5, Z19, Z5
	VMINPD Z6, Z20, Z6
	VMINPD Z7, Z21, Z7
	CMPQ   AX, CX
	JCS    mpz_kloop

	STORE_XZ
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, R12
	JGT  mpz_jtile

	VZEROUPPER
	RET

// func gaussBrickAVX512(x, b, v []float64, xstride, bstride, vstride, klen, jlen int)
//
// gaussBrickAVX2's lane expression: VMULPD with v as the first source,
// then VSUBPD x - product, unfused.
TEXT ·gaussBrickAVX512(SB), NOSPLIT, $0-112
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

gez_jtile:
	LOAD_XZ
	MOVQ DX, R13
	MOVQ SI, AX

gez_kloop:
	LOAD_KSTEP
	VMULPD Z10, Z8, Z14
	VMULPD Z10, Z9, Z15
	VMULPD Z11, Z8, Z16
	VMULPD Z11, Z9, Z17
	VMULPD Z12, Z8, Z18
	VMULPD Z12, Z9, Z19
	VMULPD Z13, Z8, Z20
	VMULPD Z13, Z9, Z21
	VSUBPD Z14, Z0, Z0
	VSUBPD Z15, Z1, Z1
	VSUBPD Z16, Z2, Z2
	VSUBPD Z17, Z3, Z3
	VSUBPD Z18, Z4, Z4
	VSUBPD Z19, Z5, Z5
	VSUBPD Z20, Z6, Z6
	VSUBPD Z21, Z7, Z7
	CMPQ   AX, CX
	JCS    gez_kloop

	STORE_XZ
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, R12
	JGT  gez_jtile

	VZEROUPPER
	RET

// The AVX-512 panels keep the AVX2 panels' register plan and ordering
// rules (scalar broadcast into Z15 before the row's first store, v
// re-read for every row). Columns run 32 (Z0–Z7), then 8, then a tail
// of 1–7 under the opmask K1 = (1 << (jlen mod 8)) - 1, computed once
// per call: masked-off lanes are neither loaded (zeroing loads, which
// also suppress faults past the slice) nor stored. R12 holds the mask
// bits while K1 is set; R14, R15 and BP stay untouched. Vector
// registers: Z15 the row's scalar, Z0–Z3 the sums or products of a
// 32-column step, Z4–Z7 its x values (GE) — Z0–Z21 and K1 are the only
// vector state any AVX-512 body writes.

// PANEL_TAIL_MASK sets K1 for the jlen mod 8 tail columns (R11 = jlen).
#define PANEL_TAIL_MASK \
	MOVQ  R11, CX \
	ANDQ  $7, CX \
	MOVL  $1, R12 \
	SHLL  CX, R12 \
	DECL  R12 \
	KMOVW R12, K1

// func minplusPanelAVX512(x, u, v []float64, xstride, ustride, rows, jlen int)
TEXT ·minplusPanelAVX512(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ xstride+72(FP), R8
	SHLQ $3, R8
	MOVQ ustride+80(FP), R9
	SHLQ $3, R9
	MOVQ rows+88(FP), R10
	MOVQ jlen+96(FP), R11
	PANEL_TAIL_MASK

mpzp_row:
	VBROADCASTSD (SI), Z15
	MOVQ         DI, AX
	MOVQ         DX, BX
	MOVQ         R11, CX
	SUBQ         $32, CX
	JLT          mpzp_lt32

mpzp_32:
	VADDPD  (BX), Z15, Z0
	VADDPD  64(BX), Z15, Z1
	VADDPD  128(BX), Z15, Z2
	VADDPD  192(BX), Z15, Z3
	VMINPD  (AX), Z0, Z0
	VMINPD  64(AX), Z1, Z1
	VMINPD  128(AX), Z2, Z2
	VMINPD  192(AX), Z3, Z3
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	ADDQ    $256, AX
	ADDQ    $256, BX
	SUBQ    $32, CX
	JGE     mpzp_32

mpzp_lt32:
	ADDQ $24, CX
	JLT  mpzp_tail

mpzp_8:
	VADDPD  (BX), Z15, Z0
	VMINPD  (AX), Z0, Z0
	VMOVUPD Z0, (AX)
	ADDQ    $64, AX
	ADDQ    $64, BX
	SUBQ    $8, CX
	JGE     mpzp_8

mpzp_tail:
	TESTQ     R12, R12
	JEQ       mpzp_next
	VMOVUPD.Z (BX), K1, Z0
	VADDPD    Z0, Z15, Z0
	VMOVUPD.Z (AX), K1, Z1
	VMINPD    Z1, Z0, Z1
	VMOVUPD   Z1, K1, (AX)

mpzp_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNE  mpzp_row

	VZEROUPPER
	RET

// func gaussPanelAVX512(x, u, v []float64, w float64, xstride, ustride, rows, jlen int)
TEXT ·gaussPanelAVX512(SB), NOSPLIT, $0-112
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
	PANEL_TAIL_MASK

gpz_row:
	VMOVSD       (SI), X14
	VDIVSD       X13, X14, X14
	VBROADCASTSD X14, Z15
	MOVQ         DI, AX
	MOVQ         DX, BX
	MOVQ         R11, CX
	SUBQ         $32, CX
	JLT          gpz_lt32

gpz_32:
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMULPD  Z15, Z0, Z0
	VMULPD  Z15, Z1, Z1
	VMULPD  Z15, Z2, Z2
	VMULPD  Z15, Z3, Z3
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	VMOVUPD 128(AX), Z6
	VMOVUPD 192(AX), Z7
	VSUBPD  Z0, Z4, Z4
	VSUBPD  Z1, Z5, Z5
	VSUBPD  Z2, Z6, Z6
	VSUBPD  Z3, Z7, Z7
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, 128(AX)
	VMOVUPD Z7, 192(AX)
	ADDQ    $256, AX
	ADDQ    $256, BX
	SUBQ    $32, CX
	JGE     gpz_32

gpz_lt32:
	ADDQ $24, CX
	JLT  gpz_tail

gpz_8:
	VMOVUPD (BX), Z0
	VMULPD  Z15, Z0, Z0
	VMOVUPD (AX), Z4
	VSUBPD  Z0, Z4, Z4
	VMOVUPD Z4, (AX)
	ADDQ    $64, AX
	ADDQ    $64, BX
	SUBQ    $8, CX
	JGE     gpz_8

gpz_tail:
	TESTQ     R12, R12
	JEQ       gpz_next
	VMOVUPD.Z (BX), K1, Z0
	VMULPD    Z15, Z0, Z0
	VMOVUPD.Z (AX), K1, Z4
	VSUBPD    Z0, Z4, Z4
	VMOVUPD   Z4, K1, (AX)

gpz_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNE  gpz_row

	VZEROUPPER
	RET

// func divRowsAVX2(f, u, d []float64, fstride, ustride, rows, n int)
//
// f[r,j] = u[r,j] / d[j]: VDIVPD with u as Intel's first source, as in
// the scalar `u / w`, 8 columns per step (two YMM), then one VDIVSD per
// remaining column. The register plan: DI f row, SI u row, DX d, R8
// fstride·8, R9 ustride·8, R10 rows remaining, R11 n; AX/BX/R12 the f,
// u and d cursors and CX the columns left inside a row.
TEXT ·divRowsAVX2(SB), NOSPLIT, $0-104
	MOVQ f_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ d_base+48(FP), DX
	MOVQ fstride+72(FP), R8
	SHLQ $3, R8
	MOVQ ustride+80(FP), R9
	SHLQ $3, R9
	MOVQ rows+88(FP), R10
	MOVQ n+96(FP), R11

dv_row:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ DX, R12
	MOVQ R11, CX
	SUBQ $8, CX
	JLT  dv_lt8

dv_8:
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VDIVPD  (R12), Y0, Y0
	VDIVPD  32(R12), Y1, Y1
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    $64, AX
	ADDQ    $64, BX
	ADDQ    $64, R12
	SUBQ    $8, CX
	JGE     dv_8

dv_lt8:
	ADDQ $8, CX
	JEQ  dv_next

dv_1:
	VMOVSD (BX), X0
	VDIVSD (R12), X0, X0
	VMOVSD X0, (AX)
	ADDQ   $8, AX
	ADDQ   $8, BX
	ADDQ   $8, R12
	DECQ   CX
	JNE    dv_1

dv_next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNE  dv_row

	VZEROUPPER
	RET
