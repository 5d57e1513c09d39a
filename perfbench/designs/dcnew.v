
// Data controller: copy a block in bursts, drain the pipeline, retry on
// aborted transfers.
module dcnew(clk);
  input clk;
  enum {IDLE, SETUP, COPY, DRAIN, DONE, ERROR} reg st;
  reg [5:0] src;
  reg [5:0] dst;
  reg [2:0] errs;
  wire req;
  wire abort;
  wire [5:0] burst;
  assign req = $ND(0, 1);
  assign abort = $ND(0, 1);
  assign burst = $ND(1, 2, 4);
  initial st = IDLE;
  initial src = 0;
  initial dst = 0;
  initial errs = 0;
  always @(posedge clk) begin
    case (st)
      IDLE: if (req) st <= SETUP;
      SETUP: begin src <= 0; dst <= 0; st <= COPY; end
      COPY: begin
        if (abort) st <= ERROR;
        else begin
          src <= src + burst;
          dst <= dst + 1;
          if (dst >= 60) st <= DRAIN;
        end
      end
      DRAIN: begin
        if (dst == 0) st <= DONE;
        else dst <= dst - 1;
      end
      ERROR: begin
        errs <= (errs == 7) ? 7 : errs + 1;
        st <= IDLE;
      end
      DONE: if (req) st <= IDLE;
    endcase
  end
endmodule
