// 8 dining philosophers, forks taken one at a time (deadlock possible).
module philos(clk);
  input clk;
  reg f0;
  reg f1;
  reg f2;
  reg f3;
  reg f4;
  reg f5;
  reg f6;
  reg f7;
  wire [2:0] turn;
  assign turn = $ND(0, 1, 2, 3, 4, 5, 6, 7);
  wire act;
  assign act = $ND(0, 1);
  wire go0;
  assign go0 = act & (turn == 0);
  wire free0;
  assign free0 = f0 == 0;
  wire tl0;
  wire tr0;
  wire rel0;
  wire go1;
  assign go1 = act & (turn == 1);
  wire free1;
  assign free1 = f1 == 0;
  wire tl1;
  wire tr1;
  wire rel1;
  wire go2;
  assign go2 = act & (turn == 2);
  wire free2;
  assign free2 = f2 == 0;
  wire tl2;
  wire tr2;
  wire rel2;
  wire go3;
  assign go3 = act & (turn == 3);
  wire free3;
  assign free3 = f3 == 0;
  wire tl3;
  wire tr3;
  wire rel3;
  wire go4;
  assign go4 = act & (turn == 4);
  wire free4;
  assign free4 = f4 == 0;
  wire tl4;
  wire tr4;
  wire rel4;
  wire go5;
  assign go5 = act & (turn == 5);
  wire free5;
  assign free5 = f5 == 0;
  wire tl5;
  wire tr5;
  wire rel5;
  wire go6;
  assign go6 = act & (turn == 6);
  wire free6;
  assign free6 = f6 == 0;
  wire tl6;
  wire tr6;
  wire rel6;
  wire go7;
  assign go7 = act & (turn == 7);
  wire free7;
  assign free7 = f7 == 0;
  wire tl7;
  wire tr7;
  wire rel7;
  initial f0 = 0;
  initial f1 = 0;
  initial f2 = 0;
  initial f3 = 0;
  initial f4 = 0;
  initial f5 = 0;
  initial f6 = 0;
  initial f7 = 0;
  always @(posedge clk) begin
    if (tl0 | tr7) f0 <= 1;
    else if (rel0 | rel7) f0 <= 0;
  end
  always @(posedge clk) begin
    if (tl1 | tr0) f1 <= 1;
    else if (rel1 | rel0) f1 <= 0;
  end
  always @(posedge clk) begin
    if (tl2 | tr1) f2 <= 1;
    else if (rel2 | rel1) f2 <= 0;
  end
  always @(posedge clk) begin
    if (tl3 | tr2) f3 <= 1;
    else if (rel3 | rel2) f3 <= 0;
  end
  always @(posedge clk) begin
    if (tl4 | tr3) f4 <= 1;
    else if (rel4 | rel3) f4 <= 0;
  end
  always @(posedge clk) begin
    if (tl5 | tr4) f5 <= 1;
    else if (rel5 | rel4) f5 <= 0;
  end
  always @(posedge clk) begin
    if (tl6 | tr5) f6 <= 1;
    else if (rel6 | rel5) f6 <= 0;
  end
  always @(posedge clk) begin
    if (tl7 | tr6) f7 <= 1;
    else if (rel7 | rel6) f7 <= 0;
  end
  phil ph0 (.clk(clk), .go(go0), .lfree(free0), .rfree(free1), .takel(tl0), .taker(tr0), .rel(rel0));
  phil ph1 (.clk(clk), .go(go1), .lfree(free1), .rfree(free2), .takel(tl1), .taker(tr1), .rel(rel1));
  phil ph2 (.clk(clk), .go(go2), .lfree(free2), .rfree(free3), .takel(tl2), .taker(tr2), .rel(rel2));
  phil ph3 (.clk(clk), .go(go3), .lfree(free3), .rfree(free4), .takel(tl3), .taker(tr3), .rel(rel3));
  phil ph4 (.clk(clk), .go(go4), .lfree(free4), .rfree(free5), .takel(tl4), .taker(tr4), .rel(rel4));
  phil ph5 (.clk(clk), .go(go5), .lfree(free5), .rfree(free6), .takel(tl5), .taker(tr5), .rel(rel5));
  phil ph6 (.clk(clk), .go(go6), .lfree(free6), .rfree(free7), .takel(tl6), .taker(tr6), .rel(rel6));
  phil ph7 (.clk(clk), .go(go7), .lfree(free7), .rfree(free0), .takel(tl7), .taker(tr7), .rel(rel7));
endmodule

module phil(clk, go, lfree, rfree, takel, taker, rel);
  input clk;
  input go;
  input lfree;
  input rfree;
  output takel;
  output taker;
  output rel;
  enum {THINK, HUNGRY, ONE, EAT} reg s;
  initial s = THINK;
  assign takel = go & (s == HUNGRY) & lfree;
  assign taker = go & (s == ONE) & rfree;
  assign rel = go & (s == EAT);
  always @(posedge clk) begin
    if (go) begin
      case (s)
        THINK: s <= HUNGRY;
        HUNGRY: if (lfree) s <= ONE;
        ONE: if (rfree) s <= EAT;
        EAT: s <= THINK;
      endcase
    end
  end
endmodule
