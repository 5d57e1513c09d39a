
// Two dining philosophers, forks taken one at a time (deadlock possible).
module philos(clk);
  input clk;
  enum {THINK, HUNGRY, ONE, EAT} reg p0;
  enum {THINK, HUNGRY, ONE, EAT} reg p1;
  enum {FREE, OWN0, OWN1} reg f0;
  enum {FREE, OWN0, OWN1} reg f1;
  wire turn; wire act;
  assign turn = $ND(0, 1);
  assign act = $ND(0, 1);
  initial p0 = THINK;
  initial p1 = THINK;
  initial f0 = FREE;
  initial f1 = FREE;
  always @(posedge clk) begin
    if (act) begin
      if (turn == 0) begin
        case (p0)
          THINK: p0 <= HUNGRY;
          HUNGRY: if (f0 == FREE) begin f0 <= OWN0; p0 <= ONE; end
          ONE: if (f1 == FREE) begin f1 <= OWN0; p0 <= EAT; end
          EAT: begin p0 <= THINK; f0 <= FREE; f1 <= FREE; end
        endcase
      end else begin
        case (p1)
          THINK: p1 <= HUNGRY;
          HUNGRY: if (f1 == FREE) begin f1 <= OWN1; p1 <= ONE; end
          ONE: if (f0 == FREE) begin f0 <= OWN1; p1 <= EAT; end
          EAT: begin p1 <= THINK; f0 <= FREE; f1 <= FREE; end
        endcase
      end
    end
  end
endmodule
