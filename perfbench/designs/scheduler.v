// Milner's cycler with 17 stations: a token advances when the
// station at the token starts its task; tasks finish on their own.
module scheduler(clk);
  input clk;
  reg [4:0] pos;
  reg run_0;
  reg run_1;
  reg run_2;
  reg run_3;
  reg run_4;
  reg run_5;
  reg run_6;
  reg run_7;
  reg run_8;
  reg run_9;
  reg run_10;
  reg run_11;
  reg run_12;
  reg run_13;
  reg run_14;
  reg run_15;
  reg run_16;
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
  wire fin_5;
  assign fin_5 = $ND(0, 1);
  wire fin_6;
  assign fin_6 = $ND(0, 1);
  wire fin_7;
  assign fin_7 = $ND(0, 1);
  wire fin_8;
  assign fin_8 = $ND(0, 1);
  wire fin_9;
  assign fin_9 = $ND(0, 1);
  wire fin_10;
  assign fin_10 = $ND(0, 1);
  wire fin_11;
  assign fin_11 = $ND(0, 1);
  wire fin_12;
  assign fin_12 = $ND(0, 1);
  wire fin_13;
  assign fin_13 = $ND(0, 1);
  wire fin_14;
  assign fin_14 = $ND(0, 1);
  wire fin_15;
  assign fin_15 = $ND(0, 1);
  wire fin_16;
  assign fin_16 = $ND(0, 1);
  wire atpos_run;
  assign atpos_run = (pos == 0) ? run_0 : (pos == 1) ? run_1 : (pos == 2) ? run_2 : (pos == 3) ? run_3 : (pos == 4) ? run_4 : (pos == 5) ? run_5 : (pos == 6) ? run_6 : (pos == 7) ? run_7 : (pos == 8) ? run_8 : (pos == 9) ? run_9 : (pos == 10) ? run_10 : (pos == 11) ? run_11 : (pos == 12) ? run_12 : (pos == 13) ? run_13 : (pos == 14) ? run_14 : (pos == 15) ? run_15 : run_16;
  wire legal;
  assign legal = pos < 17;
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
  initial run_5 = 0;
  initial run_6 = 0;
  initial run_7 = 0;
  initial run_8 = 0;
  initial run_9 = 0;
  initial run_10 = 0;
  initial run_11 = 0;
  initial run_12 = 0;
  initial run_13 = 0;
  initial run_14 = 0;
  initial run_15 = 0;
  initial run_16 = 0;
  always @(posedge clk) begin
    if (advance) pos <= (pos == 16) ? 0 : pos + 1;
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
  always @(posedge clk) begin
    if (advance && pos == 5) run_5 <= 1;
    else if (run_5 && fin_5) run_5 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 6) run_6 <= 1;
    else if (run_6 && fin_6) run_6 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 7) run_7 <= 1;
    else if (run_7 && fin_7) run_7 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 8) run_8 <= 1;
    else if (run_8 && fin_8) run_8 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 9) run_9 <= 1;
    else if (run_9 && fin_9) run_9 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 10) run_10 <= 1;
    else if (run_10 && fin_10) run_10 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 11) run_11 <= 1;
    else if (run_11 && fin_11) run_11 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 12) run_12 <= 1;
    else if (run_12 && fin_12) run_12 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 13) run_13 <= 1;
    else if (run_13 && fin_13) run_13 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 14) run_14 <= 1;
    else if (run_14 && fin_14) run_14 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 15) run_15 <= 1;
    else if (run_15 && fin_15) run_15 <= 0;
  end
  always @(posedge clk) begin
    if (advance && pos == 16) run_16 <= 1;
    else if (run_16 && fin_16) run_16 <= 0;
  end
endmodule
