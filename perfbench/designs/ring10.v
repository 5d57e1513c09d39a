// Token-ring mutex with 10 stations (one station module, 10 instances).
module ring(clk);
  input clk;
  reg [3:0] pos;
  wire [3:0] who;
  assign who = $ND(0, 1, 2, 3, 4, 5, 6, 7, 8, 9);
  wire req;
  assign req = $ND(0, 1);
  wire mv;
  assign mv = $ND(0, 1);
  wire go0;
  assign go0 = who == 0;
  wire at0;
  assign at0 = pos == 0;
  wire idle0;
  wire go1;
  assign go1 = who == 1;
  wire at1;
  assign at1 = pos == 1;
  wire idle1;
  wire go2;
  assign go2 = who == 2;
  wire at2;
  assign at2 = pos == 2;
  wire idle2;
  wire go3;
  assign go3 = who == 3;
  wire at3;
  assign at3 = pos == 3;
  wire idle3;
  wire go4;
  assign go4 = who == 4;
  wire at4;
  assign at4 = pos == 4;
  wire idle4;
  wire go5;
  assign go5 = who == 5;
  wire at5;
  assign at5 = pos == 5;
  wire idle5;
  wire go6;
  assign go6 = who == 6;
  wire at6;
  assign at6 = pos == 6;
  wire idle6;
  wire go7;
  assign go7 = who == 7;
  wire at7;
  assign at7 = pos == 7;
  wire idle7;
  wire go8;
  assign go8 = who == 8;
  wire at8;
  assign at8 = pos == 8;
  wire idle8;
  wire go9;
  assign go9 = who == 9;
  wire at9;
  assign at9 = pos == 9;
  wire idle9;
  wire atpos_idle;
  assign atpos_idle = (pos == 0) ? idle0 : (pos == 1) ? idle1 : (pos == 2) ? idle2 : (pos == 3) ? idle3 : (pos == 4) ? idle4 : (pos == 5) ? idle5 : (pos == 6) ? idle6 : (pos == 7) ? idle7 : (pos == 8) ? idle8 : idle9;
  wire advance;
  assign advance = mv & atpos_idle;
  initial pos = 0;
  always @(posedge clk) begin
    if (advance) pos <= (pos == 9) ? 0 : pos + 1;
  end
  station st0 (.clk(clk), .go(go0), .at(at0), .req(req), .idle(idle0));
  station st1 (.clk(clk), .go(go1), .at(at1), .req(req), .idle(idle1));
  station st2 (.clk(clk), .go(go2), .at(at2), .req(req), .idle(idle2));
  station st3 (.clk(clk), .go(go3), .at(at3), .req(req), .idle(idle3));
  station st4 (.clk(clk), .go(go4), .at(at4), .req(req), .idle(idle4));
  station st5 (.clk(clk), .go(go5), .at(at5), .req(req), .idle(idle5));
  station st6 (.clk(clk), .go(go6), .at(at6), .req(req), .idle(idle6));
  station st7 (.clk(clk), .go(go7), .at(at7), .req(req), .idle(idle7));
  station st8 (.clk(clk), .go(go8), .at(at8), .req(req), .idle(idle8));
  station st9 (.clk(clk), .go(go9), .at(at9), .req(req), .idle(idle9));
endmodule

module station(clk, go, at, req, idle);
  input clk;
  input go;
  input at;
  input req;
  output idle;
  enum {IDLE, WAIT, CS} reg s;
  initial s = IDLE;
  assign idle = s == IDLE;
  always @(posedge clk) begin
    if (go) begin
      case (s)
        IDLE: if (req) s <= WAIT;
        WAIT: if (at) s <= CS;
        CS: if (req) s <= IDLE;
      endcase
    end
  end
endmodule
