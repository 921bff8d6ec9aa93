// heartwall — 35 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel heartwall {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 44;
  rec i32 n3 = 1;
  i32 n11 = 12;
  i32 n20 = in(2);
  i32 n25 = in(3);
  rec i32 n30 = 0;
  i32 n4 = n3 == n3;
  i32 n21 = n20 < n20;
  i32 n26 = mem[n25];
  i32 n31 = min(n30, n30);
  i32 n5 = n4 - n1;
  n3 = n5 @ 1;
  i32 n27 = n25 - n26;
  i32 n6 = mem[n5];
  i32 n7 = n3 - n6;
  i32 n8 = select(n7, n7, n4);
  i32 n9 = ~n8;
  i32 n10 = n7 == n9;
  i32 n12 = out(n10);
  i32 n13 = mem[n12];
  i32 n19 = -n12;
  i32 n14 = max(n13, n9);
  i32 n15 = select(n14, n14, n13);
  i32 n16 = max(n13, n15);
  i32 n17 = max(n14, n15);
  i32 n18 = ~n15;
  i32 n22 = mem[n18];
  i32 n23 = n22 - n22;
  i32 n24 = min(n23, n19);
  i32 n28 = min(n23, n27);
  n30 = n28 @ 1;
  i32 n29 = n28 - n28;
  i32 n32 = n31 < n29;
  i32 n33 = n32 - n32;
  out(n32);
}
