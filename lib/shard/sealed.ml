let digest_length = String.length (Digest.string "")

let marshal v =
  let payload = Marshal.to_string v [] in
  Digest.string payload ^ payload

let unmarshal s =
  let n = String.length s - digest_length in
  if n < 0 || not (String.equal (String.sub s 0 digest_length) (Digest.substring s digest_length n))
  then None
  else try Some (Marshal.from_string s digest_length) with Failure _ | Invalid_argument _ -> None
