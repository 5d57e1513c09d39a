
// Simplified Gigamax cache-consistency protocol: four caches, a
// two-phase bus (request, then completion or retry), and a bit telling
// whether main memory holds a fresh copy of the line.
module gigamax(clk);
  input clk;
  enum {INV, SHARED, DIRTY} reg c0;
  enum {INV, SHARED, DIRTY} reg c1;
  enum {INV, SHARED, DIRTY} reg c2;
  enum {INV, SHARED, DIRTY} reg c3;
  enum {B_IDLE, B_BUSY} reg bus;
  enum {READ, WRITE, FLUSH, NOP} reg rop;
  reg [1:0] rwho;
  reg memfresh;
  wire [1:0] who;
  enum {READ, WRITE, FLUSH, NOP} wire op;
  wire done;
  assign who = $ND(0, 1, 2, 3);
  assign op = $ND(READ, WRITE, FLUSH, NOP);
  assign done = $ND(0, 1);
  initial c0 = INV;
  initial c1 = INV;
  initial c2 = INV;
  initial c3 = INV;
  initial bus = B_IDLE;
  initial rop = NOP;
  initial rwho = 0;
  initial memfresh = 1;
  always @(posedge clk) begin
    if (bus == B_IDLE) begin
      if (op != NOP) begin
        bus <= B_BUSY;
        rop <= op;
        rwho <= who;
      end
    end else begin
      if (done) begin
        bus <= B_IDLE;
        rop <= NOP;
        if (rop == WRITE) begin
          if (rwho == 0) begin c0 <= DIRTY; c1 <= INV; c2 <= INV; c3 <= INV; end
          if (rwho == 1) begin c1 <= DIRTY; c0 <= INV; c2 <= INV; c3 <= INV; end
          if (rwho == 2) begin c2 <= DIRTY; c0 <= INV; c1 <= INV; c3 <= INV; end
          if (rwho == 3) begin c3 <= DIRTY; c0 <= INV; c1 <= INV; c2 <= INV; end
          memfresh <= 0;
        end
        if (rop == READ) begin
          if (rwho == 0 && c0 == INV) begin
            c0 <= SHARED;
            if (c1 == DIRTY) c1 <= SHARED;
            if (c2 == DIRTY) c2 <= SHARED;
            if (c3 == DIRTY) c3 <= SHARED;
            memfresh <= 1;
          end
          if (rwho == 1 && c1 == INV) begin
            c1 <= SHARED;
            if (c0 == DIRTY) c0 <= SHARED;
            if (c2 == DIRTY) c2 <= SHARED;
            if (c3 == DIRTY) c3 <= SHARED;
            memfresh <= 1;
          end
          if (rwho == 2 && c2 == INV) begin
            c2 <= SHARED;
            if (c0 == DIRTY) c0 <= SHARED;
            if (c1 == DIRTY) c1 <= SHARED;
            if (c3 == DIRTY) c3 <= SHARED;
            memfresh <= 1;
          end
          if (rwho == 3 && c3 == INV) begin
            c3 <= SHARED;
            if (c0 == DIRTY) c0 <= SHARED;
            if (c1 == DIRTY) c1 <= SHARED;
            if (c2 == DIRTY) c2 <= SHARED;
            memfresh <= 1;
          end
        end
        if (rop == FLUSH) begin
          if (rwho == 0 && c0 == DIRTY) begin c0 <= INV; memfresh <= 1; end
          if (rwho == 1 && c1 == DIRTY) begin c1 <= INV; memfresh <= 1; end
          if (rwho == 2 && c2 == DIRTY) begin c2 <= INV; memfresh <= 1; end
          if (rwho == 3 && c3 == DIRTY) begin c3 <= INV; memfresh <= 1; end
        end
      end
    end
  end
endmodule
