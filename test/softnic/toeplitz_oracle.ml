(* The bit-serial Toeplitz hash, kept as the test oracle for the
   table-driven library version: for each set bit i of the input
   (MSB-first), XOR in the 32-bit window of the key starting at key bit
   i (Microsoft RSS spec, section "RSS hashing algorithm"). *)
let hash key input =
  assert (Bytes.length key >= Bytes.length input + 4);
  let result = ref 0l in
  for i = 0 to (8 * Bytes.length input) - 1 do
    let byte = Char.code (Bytes.get input (i / 8)) in
    if byte land (1 lsl (7 - (i mod 8))) <> 0 then begin
      let window = Packet.Bitops.get_bits key ~bit_off:i ~width:32 in
      result := Int32.logxor !result (Int64.to_int32 window)
    end
  done;
  !result
