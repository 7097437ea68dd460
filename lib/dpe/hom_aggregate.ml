module Value = Minidb.Value

let sum_ciphertext enc encdb ~rel ~attr =
  (match Scheme.class_for_attr (Encryptor.scheme enc) attr with
   | Scheme.C_hom -> ()
   | cls ->
     raise
       (Encryptor.Encrypt_error
          (Printf.sprintf "column %s.%s is %s, not HOM" rel attr
             (Scheme.show_const_class cls))));
  let pub, _ = Encryptor.paillier enc in
  let enc_rel = Encryptor.encrypt_rel enc rel in
  let enc_attr = Encryptor.encrypt_attr_name enc attr in
  let table = Minidb.Database.find_exn encdb enc_rel in
  let values = Minidb.Table.column_values table enc_attr in
  let rng = Crypto.Drbg.create ~seed:"hom-sum-neutral" in
  let zero = Crypto.Paillier.encrypt_int pub rng 0 in
  List.fold_left
    (fun (acc, n) v ->
      match v with
      | Value.Vnull -> (acc, n)
      | Value.Vstring s ->
        (match Crypto.Hex.decode s with
         | None -> raise (Encryptor.Encrypt_error "HOM cell is not hex")
         | Some ct ->
           (Crypto.Paillier.add pub acc (Crypto.Paillier.deserialize ct), n + 1))
      | v ->
        raise
          (Encryptor.Encrypt_error
             ("HOM cell is not a ciphertext: " ^ Value.to_string v)))
    (zero, 0) values

let decrypt_sum enc c =
  let _, sk = Encryptor.paillier enc in
  Crypto.Paillier.decrypt_int sk c
