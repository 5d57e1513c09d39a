
// Two players bounce a ball: serve, then alternate ping / pong.
module pingpong(clk);
  input clk;
  enum {SERVE, PING, PONG} reg ball;
  initial ball = SERVE;
  always @(posedge clk) begin
    case (ball)
      SERVE: ball <= PING;
      PING:  ball <= PONG;
      PONG:  ball <= PING;
    endcase
  end
endmodule
