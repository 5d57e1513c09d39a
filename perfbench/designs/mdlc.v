
// Two independent message data-link controllers (the "2" of 2mdlc):
// alternating-bit protocol with lossy channels, retransmission and a
// bounded retry counter, instantiated twice.
module mdlc2(clk);
  input clk;
  link a(.clk(clk));
  link b(.clk(clk));
endmodule

module link(clk);
  input clk;
  enum {S_SEND, S_WAIT} reg sst;
  reg sseq;
  reg [1:0] sdata;
  reg [1:0] tries;
  // data channel (one frame deep)
  reg cvalid;
  reg cseq;
  reg [1:0] cdata;
  // ack channel
  reg avalid;
  reg aseq;
  // receiver
  reg rseq;
  reg [1:0] rdata;
  wire lose;
  wire alose;
  wire timeout;
  wire [1:0] newdata;
  wire deliver;
  assign lose = $ND(0, 1);
  assign alose = $ND(0, 1);
  assign timeout = $ND(0, 1);
  assign newdata = $ND(0, 1, 2, 3);
  assign deliver = cvalid & !lose & cseq == rseq;
  initial sst = S_SEND;
  initial sseq = 0;
  initial sdata = 0;
  initial tries = 0;
  initial cvalid = 0;
  initial cseq = 0;
  initial cdata = 0;
  initial avalid = 0;
  initial aseq = 0;
  initial rseq = 0;
  initial rdata = 0;
  always @(posedge clk) begin
    // receiver end of the data channel
    if (cvalid) begin
      if (!lose) begin
        if (cseq == rseq) begin
          rdata <= cdata;
          rseq <= !rseq;
        end
        avalid <= 1;
        aseq <= cseq;
      end
      cvalid <= 0;
    end
    // sender
    if (sst == S_SEND) begin
      if (!cvalid) begin
        cvalid <= 1;
        cseq <= sseq;
        cdata <= sdata;
        sst <= S_WAIT;
      end
    end else begin
      if (avalid) begin
        avalid <= 0;
        if (!alose && aseq == sseq) begin
          sseq <= !sseq;
          sdata <= newdata;
          tries <= 0;
          sst <= S_SEND;
        end
      end else begin
        if (timeout) begin
          tries <= (tries == 3) ? 3 : tries + 1;
          sst <= S_SEND;
        end
      end
    end
  end
endmodule
