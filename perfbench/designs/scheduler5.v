// Milner's cycler with 5 stations: a token advances when the
// station at the token starts its task; tasks finish on their own.
module scheduler(clk);
  input clk;
  reg [2:0] pos;
  reg run_0;
  reg run_1;
  reg run_2;
  reg run_3;
  reg run_4;
  wire start;
  assign start = $ND(0, 1);
  wire fin_0;
  assign fin_0 = $ND(0, 1);
  wire fin_1;
  assign fin_1 = $ND(0, 1);
  wire fin_2;
  assign fin_2 = $ND(0, 1);
  wire fin_3;
  assign fin_3 = $ND(0, 1);
  wire fin_4;
  assign fin_4 = $ND(0, 1);
  wire atpos_run;
  assign atpos_run = (pos == 0) ? run_0 : (pos == 1) ? run_1 : (pos == 2) ? run_2 : (pos == 3) ? run_3 : run_4;
  wire legal;
  assign legal = pos < 5;
  wire advance;
  assign advance = start & !atpos_run & legal;
  wire start0;
  assign start0 = advance & pos == 0;
  wire start1;
  assign start1 = advance & pos == 1;
  initial pos = 0;
  initial run_0 = 0;
  initial run_1 = 0;
  initial run_2 = 0;
  initial run_3 = 0;
  initial run_4 = 0;
  always @(posedge clk) begin
    if (advance) pos <= (pos == 4) ? 0 : pos + 1;
  end
  always @(posedge clk) begin
    if (advance && pos == 0) run_0 <= 1;
    else if (run_0 && fin_0) run_0 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 1) run_1 <= 1;
    else if (run_1 && fin_1) run_1 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 2) run_2 <= 1;
    else if (run_2 && fin_2) run_2 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 3) run_3 <= 1;
    else if (run_3 && fin_3) run_3 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 4) run_4 <= 1;
    else if (run_4 && fin_4) run_4 <= 0;
  end
endmodule
